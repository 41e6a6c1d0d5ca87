"""Tests for the shared range check and the inputs it refuses, for the one
rule by which a frozen record owns its arrays, and for the CSV writer
against the cell-by-cell ``str`` oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lockinsim._io import CSV_BLOCK_ROWS, check_range, csv_blocks
from lockinsim.csrecon import WidebandGrid, WidebandSpectrum, design_rates
from lockinsim.lockin import nonlinear_spectrum_prediction
from lockinsim.readout import ReadoutModel
from lockinsim.sampler import SamplingSchedule, TimeTrace, undersampled_bin
from lockinsim.signal import PhaseNoisePath
from lockinsim.spectral import PowerSpectrum

from .helpers import str_csv_bytes


def message(low, value, **options):
    with pytest.raises(ValueError) as excinfo:
        check_range(low, x=value, **options)
    return str(excinfo.value)


class TestCheckRange:
    @pytest.mark.parametrize(
        "low, options, inside, outside, text",
        [
            (0, {}, [0, 0.0, 7.5], [-1e-300, -2], ">= 0"),
            (0, {"strict": True}, [1e-300, 3], [0, 0.0, -1], "> 0"),
            (0, {"high": 1}, [0, 0.5, 1.0], [-0.1, 1.5], "in [0, 1]"),
            (0, {"high": 1, "strict": True}, [1e-9, 0.5], [0.0, 1, 1.5], "in (0, 1)"),
            (2, {"integer": True}, [2, np.int64(9)], [1, np.int32(0)], "an integer >= 2"),
        ],
        ids=["at-least", "above", "closed", "open", "integer"],
    )
    def test_each_bound_shape(self, low, options, inside, outside, text):
        for value in inside:
            check_range(low, x=value, **options)
        for value in outside:
            assert message(low, value, **options) == f"x must be {text}, got {value}"

    @pytest.mark.parametrize(
        "low, options",
        [(None, {}), (0, {}), (0, {"strict": True}), (0, {"high": 1}),
         (0, {"high": 1, "strict": True})],
        ids=["finite", "at-least", "above", "closed", "open"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.inf)])
    def test_refuses_nan_and_infinities(self, low, options, value):
        assert message(low, value, **options) == f"x must be finite, got {value}"

    def test_finite_alone_takes_any_finite_number(self):
        check_range(None, x=-1e308, y=0.0, z=1e308)

    @pytest.mark.parametrize("value", [3.0, 2.5, math.inf, "3"])
    def test_integer_check_refuses_every_other_type(self, value):
        assert message(1, value, integer=True) == f"x must be an integer >= 1, got {value}"

    def test_skips_none_and_checks_each_list_entry(self):
        check_range(1, x=None, xs=[1, 2, None])
        with pytest.raises(ValueError, match=r"^xs must be >= 1, got 0$"):
            check_range(1, xs=[3, 0, 5])
        with pytest.raises(ValueError, match=r"^xs must be finite, got nan$"):
            check_range(1, xs=[3, math.nan])

    def test_names_the_first_failing_keyword_after_the_prefix(self):
        with pytest.raises(ValueError) as excinfo:
            check_range(0, strict=True, prefix="fm.", a=1.0, b=-2.0, c=-3.0)
        assert str(excinfo.value) == "fm.b must be > 0, got -2.0"


SCHEDULE = {"dead_time_s": 5.0e-4, "num_samples": 10}
READOUT = {"qnd_repetitions": 260, "contrast": 0.35}

#: (field, call) pairs: each call passes NaN, inf, 0, a fraction or an
#: overflowing value where the field forbids it, and must be refused by name.
REFUSED = [
    ("dead_time_s", lambda: SamplingSchedule(**{**SCHEDULE, "dead_time_s": math.inf})),
    ("start_time_s", lambda: SamplingSchedule(**SCHEDULE, start_time_s=math.inf)),
    ("clock_jitter_std_s", lambda: SamplingSchedule(**SCHEDULE, clock_jitter_std_s=math.inf)),
    ("readout_unit_time_s", lambda: ReadoutModel(**READOUT, readout_unit_time_s=math.inf)),
    (
        "depolarization_per_readout",
        lambda: ReadoutModel(**READOUT, depolarization_per_readout=math.inf),
    ),
    ("sampling_period_s", lambda: TimeTrace(np.array([1, 2]), sampling_period_s=math.inf)),
    ("f_s", lambda: undersampled_bin(1.0e6, math.inf, 100)),
    ("f_true", lambda: undersampled_bin(math.inf, 700.0, 100)),
    ("base_period_s", lambda: design_rates(3, math.inf, 1e-5, seed=0)),
    ("time_grid_s", lambda: design_rates(3, 1e-3, 1e-5, seed=0, time_grid_s=0.0)),
    # 1e310 levels overflow to inf; 1e20 levels do not fit the int64 draw.
    (
        "max_extra_s / time_grid_s",
        lambda: design_rates(3, 1e-3, 1.0e300, seed=0, time_grid_s=1.0e-10),
    ),
    (
        "max_extra_s / time_grid_s",
        lambda: design_rates(3, 1e-3, 1.0e10, seed=0, time_grid_s=1.0e-10),
    ),
    ("phi_max", lambda: nonlinear_spectrum_prediction(math.nan, 1.0e6)),
    ("k_max", lambda: nonlinear_spectrum_prediction(1.0, 1.0, k_max=2.5)),
]


@pytest.mark.parametrize("field, call", REFUSED, ids=[field for field, _ in REFUSED])
def test_non_finite_or_zero_input_is_refused_by_name(field, call):
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        call()


GRID = WidebandGrid(duration_s=1.0, nyquist_rate_hz=16.0)

#: (field, a valid value of it, the record built around a given array).
RECORD_ARRAYS = [
    ("counts", np.arange(5), lambda a: TimeTrace(a, 1e-3)),
    ("sample_times_s", np.arange(5.0), lambda a: TimeTrace(np.arange(5), 1e-3, sample_times_s=a)),
    ("power", np.ones(5), lambda a: PowerSpectrum(a, sample_rate_hz=8.0, num_samples=8)),
    ("support", np.array([1, 3]), lambda a: WidebandSpectrum(GRID, a, np.ones(2))),
    ("components", np.array([1.0, 2.0]), lambda a: WidebandSpectrum(GRID, np.array([1, 3]), a)),
    ("psi_rad", np.arange(4.0), lambda a: PhaseNoisePath(0.1, a)),
    ("run_starts", np.array([0, 4]), lambda a: PhaseNoisePath(0.1, np.ones(6), a, [0, 3])),
    ("run_offsets", np.array([0, 3]), lambda a: PhaseNoisePath(0.1, np.ones(6), [0, 4], a)),
]


@pytest.mark.parametrize(
    "field, values, make", RECORD_ARRAYS, ids=[field for field, *_ in RECORD_ARRAYS]
)
def test_a_record_keeps_a_frozen_array_and_copies_any_other(field, values, make):
    given = values.copy()
    held = getattr(make(given), field)
    given[-1] += 1
    assert given.flags.writeable
    assert not held.flags.writeable
    np.testing.assert_array_equal(held, values)

    narrower = values.astype(np.int32 if values.dtype == np.int64 else np.float32)
    narrower.setflags(write=False)
    held = getattr(make(narrower), field)
    assert held.dtype == values.dtype
    assert not held.flags.writeable
    assert not np.shares_memory(held, narrower)

    kept = values.copy()
    kept.setflags(write=False)
    assert np.shares_memory(getattr(make(kept), field), kept)


def assert_like_str(*columns, header=("# h", "a")):
    assert b"".join(csv_blocks(header, columns)) == str_csv_bytes(header, columns)


def bits_to_floats(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


#: Cells at the edges of the numpy path: zeros, non-finite values,
#: subnormals and the smallest normal, powers of two, the ends of the
#: fixed-point range 1e-4 <= |x| < 1e16, short and tie-prone decimals.
EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
    *[2.0**k for k in range(-20, 60)], *[-(2.0**k) for k in range(-20, 60, 7)],
    1e-4, 9.99e-5, 0.00010000000000000002, 9.999999999999999e-05, 1e16,
    9999999999999998.0, 1e15, 999999999999999.9, 0.5, 4.35, -4.35, 0.1, 0.3,
    0.09999999999999999, 0.001, 0.0009999999999999998, 123456789012345.67,
    *[10.0**k for k in range(-5, 18)], *[k / 3600.0 for k in range(1, 4000)],
]


class TestCsvBlocks:
    @given(
        st.lists(
            st.integers(0, 2**64 - 1).map(lambda b: float(bits_to_floats([b])[0]))
            | st.floats(allow_subnormal=True),
            min_size=1,
            max_size=40,
        )
    )
    def test_any_float64_is_written_as_str(self, values):
        assert_like_str(np.array(values, dtype=np.float64))

    def test_a_million_random_doubles_are_written_as_str(self):
        # Random sign and fraction bits over the binades 2**-14 .. 2**54,
        # which hold the numpy path's range 1e-4 <= |x| < 1e16 and its ends.
        rng = np.random.default_rng(20260418)
        n = 1_000_000
        exponent = rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64)
        bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)) | (
            (exponent << np.uint64(52)) | rng.integers(0, 2**52, n, dtype=np.uint64)
        )
        assert_like_str(bits_to_floats(bits))

    def test_edge_values_are_written_as_str(self):
        assert_like_str(np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1]))

    def test_decimals_of_16_and_17_digits_are_written_as_str(self):
        # Above 2**53 * 10**k doubles are sparser than 17-digit decimals, so
        # the shortest repr of each nearest double needs the full search.
        rng = np.random.default_rng(7)
        digits = rng.integers(2**53, 10**17, 20_000)
        digits[::2] //= 10  # 16 digits
        powers = rng.integers(-20, 0, digits.size)
        values = np.array([float(f"{d}e{k}") for d, k in zip(digits.tolist(), powers.tolist())])
        assert_like_str(values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf))

    def test_short_binary_fractions_are_written_as_str(self):
        # m / 2**k has a finite decimal expansion, so the scaled value often
        # ends in exactly one half: a tie between two 17-digit strings.
        rng = np.random.default_rng(8)
        m = rng.integers(1, 2**45, 50_000)
        shifts = rng.integers(0, 40, m.size)
        assert_like_str(m / 2.0**shifts, -m / 2.0 ** (shifts % 9))

    def test_integer_extremes_are_written_as_str(self):
        ints = np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 9, 10, 99, 100, 10**18 - 1,
                         10**18, -(10**18), 2**63 - 1], dtype=np.int64)
        unsigned = np.array([0, 1, 10**19 - 1, 10**19, 2**63, 2**64 - 1], dtype=np.uint64)
        assert_like_str(ints)
        assert_like_str(unsigned)
        assert_like_str(ints.astype(np.int8), ints.astype(np.uint32), ints.astype(np.int32))

    @pytest.mark.parametrize(
        "columns",
        [
            ([True, False], [1.5, 2.5]),
            ([1, None], [0.25, 3.0]),
            (np.array([0.1, 1e-5, 3.4e38, -2.5], dtype=np.float32), [1, 2, 3, 4]),
            (np.array([0.1, 65504.0], dtype=np.float16), [1, 2.5]),
            ([1, 2.5, 3], [1, 2, 3], ["a", "b", "c"]),
            ([[1, 2], [3, 4]], [5, 6]),
        ],
        ids=["bool", "object", "float32", "float16-mixed", "str", "2-d"],
    )
    def test_other_dtypes_follow_the_tolist_semantics(self, columns):
        assert_like_str(*columns)

    def test_str_rows_are_spliced_in_place_across_blocks(self):
        rows = CSV_BLOCK_ROWS + 5
        x = np.random.default_rng(5).normal(size=rows)
        slow = [0, 1, 2, 100, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, rows - 1]
        x[slow] = [math.nan, 1e-5, -math.inf, math.inf, 0.5, 5e-324, 1e300]
        assert_like_str(np.arange(rows), x, x[::-1].copy())
        # Blocks of mostly str rows, and of zeros, which numpy writes.
        assert_like_str(np.where(x > -0.5, 1e-5, x), np.arange(rows))
        assert_like_str(np.where(x > 0.0, 0.0, -0.0), np.arange(rows))

    def test_header_alone_without_columns(self):
        assert b"".join(csv_blocks(["# h", "a,b"], [])) == b"# h\na,b\n"

    def test_unequal_columns_are_refused_before_any_output(self):
        blocks = csv_blocks(["a,b,c"], [[1, 2, 3], [1.0, 2.0], np.arange(3)])
        with pytest.raises(ValueError, match=r"^CSV columns differ in length: 3, 2, 3$"):
            next(blocks)
