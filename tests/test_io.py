"""Tests for the shared range check and the inputs it refuses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lockinsim._io import check_range
from lockinsim.csrecon import design_rates
from lockinsim.lockin import nonlinear_spectrum_prediction
from lockinsim.readout import ReadoutModel
from lockinsim.sampler import SamplingSchedule, TimeTrace, undersampled_bin


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


SCHEDULE = {
    "sensing_time_s": 6.7e-6,
    "readout_time_s": 6.0e-4,
    "dead_time_s": 5.0e-4,
    "num_samples": 10,
}
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
