"""Tests for the multirate compressive reconstruction of wideband spectra."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import yaml
from scipy.optimize import nnls as scipy_nnls

from lockinsim import csrecon
from lockinsim.cli import EXIT_OK, main
from lockinsim.csrecon import (
    CooMatrix,
    NnlsError,
    SamplingMatrix,
    WidebandGrid,
    WidebandSpectrum,
    build_sampling_matrix,
    coherence,
    design_rates,
    nnls_active_set,
    reconstruct,
    recovery_phase_diagram,
    support_from_bands,
    write_matrix_csv,
)
from lockinsim.sampler import undersampled_bin
from lockinsim.spectral import power_spectrum

from .helpers import (
    REPO_ROOT,
    as_csc,
    scipy_coherence,
    scipy_gram_nnls,
    short_wideband_config,
    solved_rows,
    two_sided_sampling_matrix,
)


def reference_nnls(a_matrix, b, tol=1e-10):
    """Lawson-Hanson with the passive least-squares subproblem re-solved by
    np.linalg.lstsq on the dense passive columns at every step (the solver
    ``nnls_active_set`` replaced). Test oracle only.

    Returns:
        (x, iterations).
    """
    a_csc = as_csc(a_matrix)
    at = a_csc.T.tocsr()
    x = np.zeros(a_csc.shape[1])
    passive: list[int] = []
    threshold = tol * float(np.max(np.abs(at @ b)))
    resid = np.array(b, dtype=float)
    for iterations in range(1, 10 * a_csc.shape[1] + 30):
        w = at @ resid
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= threshold:
            return x, iterations
        passive.append(j)
        while passive:
            z, *_ = np.linalg.lstsq(a_csc[:, passive].toarray(), b, rcond=None)
            if np.all(z > 0.0):
                x[:] = 0.0
                x[passive] = z
                break
            xp = x[passive]
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = np.min(np.where(z <= 0.0, xp / (xp - z), np.inf))
            xp = np.maximum(xp + alpha * (z - xp), 0.0)
            x[:] = 0.0
            x[passive] = xp
            passive = [idx for idx, val in zip(passive, xp) if val > 0.0]
        resid = b - a_csc @ x
    raise AssertionError("reference NNLS did not converge")


def assert_matches_reference(a_matrix, b, tol=1e-10):
    """Same iteration count, identical support, components within 1e-12.

    Returns:
        The solution of ``nnls_active_set``.
    """
    x, info = nnls_active_set(a_matrix, b, tol=tol)
    x_ref, iterations_ref = reference_nnls(a_matrix, b, tol=tol)
    assert info.iterations == iterations_ref
    np.testing.assert_array_equal(np.nonzero(x)[0], np.nonzero(x_ref)[0])
    np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0.0)
    return x


def count_refactors(monkeypatch):
    """Record the size of every Cholesky refactor of the passive Gram block."""
    refactors = []
    cholesky = np.linalg.cholesky

    def counting(*args, **kwargs):
        refactors.append(args[0].shape[0])
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(csrecon.np.linalg, "cholesky", counting)
    return refactors


def capture_nnls_problems(monkeypatch):
    """Record (A, b, tol) of every nnls_active_set call made through csrecon."""
    problems = []
    solver = csrecon.nnls_active_set

    def recording(a_matrix, b, *, tol=1e-10, **kwargs):
        problems.append((a_matrix, b, tol))
        return solver(a_matrix, b, tol=tol, **kwargs)

    monkeypatch.setattr(csrecon, "nnls_active_set", recording)
    return problems


@pytest.fixture(scope="module")
def shipped_problem(tmp_path_factory):
    """(A, b, tol) of the solve ``reconstruct`` makes on the shipped config."""
    config = REPO_ROOT / "configs" / "wideband_recovery.yaml"
    out = tmp_path_factory.mktemp("shipped") / "out.json"
    with pytest.MonkeyPatch.context() as monkeypatch:
        problems = capture_nnls_problems(monkeypatch)
        assert main(["reconstruct", "--config", str(config), "--out", str(out)]) == EXIT_OK
    (problem,) = problems
    assert problem[0].shape == (5229, 3602)
    return problem




class TestWidebandGrid:
    def test_bin_count_and_resolution(self):
        grid = WidebandGrid(duration_s=2.0, nyquist_rate_hz=2.5e6)
        assert grid.num_bins == 5_000_000
        assert grid.resolution_hz == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(
            grid.frequency_hz(np.array([0, 3, 10])), [0.0, 1.5, 5.0], rtol=1e-15
        )
        # T f_s one ulp below 79 still counts 79 samples; 79.5 counts 79.
        assert 2.0 * np.nextafter(39.5, 0.0) == np.nextafter(79.0, 0.0)
        assert grid.record_bins(np.nextafter(39.5, 0.0)) == 79
        assert grid.record_bins(39.5) == grid.record_bins(39.75) == 79

    def test_rejects_non_integer_or_degenerate_grids(self):
        with pytest.raises(ValueError):
            WidebandGrid(duration_s=1.0, nyquist_rate_hz=10.5)
        with pytest.raises(ValueError):
            WidebandGrid(duration_s=1.0, nyquist_rate_hz=1.0)
        with pytest.raises(ValueError):
            WidebandGrid(duration_s=-1.0, nyquist_rate_hz=16.0)

    def test_bin_of_roundtrips_and_rejects_off_grid(self):
        grid = WidebandGrid(duration_s=2.0, nyquist_rate_hz=100.0)
        assert grid.bin_of(7.5) == 15
        assert grid.frequency_hz(grid.bin_of(31.0)) == pytest.approx(31.0)
        with pytest.raises(ValueError, match="off-grid"):
            grid.bin_of(7.52)
        with pytest.raises(ValueError, match="outside"):
            grid.bin_of(150.0)

    def test_conjugate_bins_mirror_around_the_grid(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        assert grid.conjugate_bin(0) == 0
        assert grid.conjugate_bin(15) == 49
        assert grid.conjugate_bin(grid.conjugate_bin(15)) == 15


class TestSupportFromBands:
    def test_band_bins_and_conjugates(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=100.0)
        # Forward bins only: the conjugates 94 .. 97 are not listed.
        support, overlapped = support_from_bands(grid, [(3.0, 6.0)])
        np.testing.assert_array_equal(support, [3, 4, 5, 6])
        assert not overlapped

    def test_overlap_flag(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=100.0)
        _, overlapped = support_from_bands(grid, [(3.0, 6.0), (5.0, 9.0)])
        assert overlapped

    def test_rejects_invalid_or_out_of_range_bands(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=100.0)
        with pytest.raises(ValueError, match="invalid band"):
            support_from_bands(grid, [(6.0, 3.0)])
        with pytest.raises(ValueError, match="half-grid"):
            support_from_bands(grid, [(3.0, 60.0)])
        with pytest.raises(ValueError, match=r"band \(3.1, 3.3\) holds no bin of the 1.0 Hz grid"):
            support_from_bands(grid, [(1.0, 2.0), (3.1, 3.3)])


class TestBuildSamplingMatrix:
    def test_integer_decimation_gives_single_full_weight_entries(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(16.0, 16, grid, support=[5, 21])
        dense = mat.matrix.toarray()
        assert dense.shape == (9, 2)
        assert mat.scale == pytest.approx(16 / 64)
        # 5 -> row 5; 21 -> row 5 (their mirrors -5, -21 land on row 11).
        for col, row in enumerate([5, 5]):
            assert dense[row, col] == pytest.approx(mat.scale, rel=1e-12)
            assert np.count_nonzero(dense[:, col]) == 1

    def test_fractional_folds_interpolate_with_hat_pairs(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(8.0, 10, grid, support=[9, 10])
        dense = mat.matrix.toarray()
        ratio = grid.duration_s / mat.record_duration_s
        assert ratio == pytest.approx(0.8)
        # Bin 9 images at 8.8 and 9.6: weights 0.8 and 0.4 at rows 1, 2.
        assert dense[1, 0] == pytest.approx(0.8 * mat.scale, rel=1e-9)
        assert dense[2, 0] == pytest.approx(0.4 * mat.scale, rel=1e-9)
        # Each off-node column's weights total (2 - ratio) * scale.
        np.testing.assert_allclose(
            dense.sum(axis=0), (2.0 - ratio) * mat.scale, rtol=1e-9
        )

    def test_peak_rows_match_the_undersampling_oracle(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=4096.0)
        rng = np.random.default_rng(17)
        for _ in range(100):
            n_i = int(rng.integers(16, 200))
            m = int(rng.integers(1, grid.num_bins // 2))
            mat = build_sampling_matrix(float(n_i), n_i, grid, support=[m])
            rows = mat.matrix.rows
            assert rows.size == 1
            assert int(rows[0]) == undersampled_bin(float(m), float(n_i), n_i)

    def test_equals_the_row_fold_of_the_two_sided_matrix(self):
        # Bit for bit: rows n and N_i - n of the two-sided matrix summed into
        # n, rows 0 .. floor(N_i/2). Bin 0 is its own mirror, so its column
        # counts its images once. Records range from shorter than the grid
        # to longer, so folds are fractional and some images hit row 0 or
        # the Nyquist row.
        rng = np.random.default_rng(29)
        for _ in range(200):
            duration = float(rng.choice([0.5, 1.0, 2.0]))
            m_total = int(rng.integers(8, 300))
            grid = WidebandGrid(duration_s=duration, nyquist_rate_hz=m_total / duration)
            rate = float(rng.uniform(4.0 / duration, grid.nyquist_rate_hz))
            n_i = int(rng.integers(2, 1.5 * rate * duration + 1))
            support = np.unique(rng.integers(0, m_total // 2 + 1, size=rng.integers(1, 40)))
            mat = build_sampling_matrix(rate, n_i, grid, support)
            two_sided = two_sided_sampling_matrix(rate, n_i, grid, support).toarray()
            rows = np.arange(n_i // 2 + 1)
            folded = two_sided[rows] + two_sided[(n_i - rows) % n_i]
            folded[:, support == 0] = two_sided[rows][:, support == 0]
            np.testing.assert_array_equal(mat.matrix.toarray(), folded)

    def test_triplets_equal_scipy_csc_of_the_same_entries(self, monkeypatch):
        # The entries build_sampling_matrix emits, summed by scipy.sparse:
        # same coordinates, same order, bit-identical sums. Supports hold
        # bins 0 and M/2, whose images meet on the DC and Nyquist rows.
        entries = []
        from_entries = CooMatrix.from_entries.__func__

        def recording(cls, rows, cols, data, shape):
            entries.append((rows, cols, data, shape))
            return from_entries(cls, rows, cols, data, shape)

        monkeypatch.setattr(CooMatrix, "from_entries", classmethod(recording))
        rng = np.random.default_rng(41)
        duplicates = 0
        for _ in range(200):
            duration = float(rng.choice([0.5, 1.0, 2.0]))
            m_total = 2 * int(rng.integers(4, 150))
            grid = WidebandGrid(duration_s=duration, nyquist_rate_hz=m_total / duration)
            rate = float(rng.uniform(4.0 / duration, grid.nyquist_rate_hz))
            n_i = int(rng.integers(2, 1.5 * rate * duration + 1))
            drawn = rng.integers(0, m_total // 2 + 1, size=rng.integers(1, 40))
            support = np.concatenate([[0, m_total // 2], drawn])
            entries.clear()
            mat = build_sampling_matrix(rate, n_i, grid, support).matrix
            ((rows, cols, data, shape),) = entries
            ref = sp.csc_matrix((data, (rows, cols)), shape=shape)
            ref.sum_duplicates()
            duplicates += rows.size - ref.nnz
            assert mat.shape == ref.shape
            np.testing.assert_array_equal(mat.rows, ref.indices)
            ref_cols = np.repeat(np.arange(shape[1]), np.diff(ref.indptr))
            np.testing.assert_array_equal(mat.cols, ref_cols)
            np.testing.assert_array_equal(mat.data, ref.data)
        assert duplicates > 0

    def test_validates_rate_length_and_support(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        with pytest.raises(ValueError, match="sample_rate_hz"):
            build_sampling_matrix(0.0, 16, grid)
        with pytest.raises(ValueError, match="num_record_bins"):
            build_sampling_matrix(16.0, 1, grid)
        with pytest.raises(ValueError, match="Nyquist"):
            build_sampling_matrix(128.0, 16, grid)
        with pytest.raises(ValueError, match="support"):
            build_sampling_matrix(16.0, 16, grid, support=[33])
        with pytest.raises(ValueError, match=r"^support must be an integer in \[0, 32.0\], got 2.7$"):
            build_sampling_matrix(16.0, 16, grid, support=[2.7])


class TestCooMatrix:
    """The numpy sparse type against scipy.sparse, bit for bit."""

    @staticmethod
    def random_matrix(rng, shape, nnz):
        rows = rng.integers(0, shape[0], size=nnz)
        cols = rng.integers(0, shape[1], size=nnz)
        return rows, cols, rng.uniform(-1.0, 1.0, size=nnz)

    def test_from_entries_sums_duplicates_as_scipy_does(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            shape = (int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            rows, cols, data = self.random_matrix(rng, shape, int(rng.integers(0, 60)))
            # At most two entries per coordinate: their sum is order-free.
            _, first = np.unique(cols * shape[0] + rows, return_index=True)
            rows, cols, data = rows[first], cols[first], data[first]
            twice = rng.random(rows.size) < 0.3
            rows = np.concatenate([rows, rows[twice]])
            cols = np.concatenate([cols, cols[twice]])
            data = np.concatenate([data, rng.uniform(-1.0, 1.0, int(twice.sum()))])
            mat = CooMatrix.from_entries(rows, cols, data, shape)
            ref = sp.csc_matrix((data, (rows, cols)), shape=shape)
            ref.sum_duplicates()
            np.testing.assert_array_equal(mat.rows, ref.indices)
            np.testing.assert_array_equal(mat.data, ref.data)
            assert mat.nnz == ref.nnz
            np.testing.assert_array_equal(mat.toarray(), ref.toarray())
            dense = mat.toarray()
            np.testing.assert_array_equal(CooMatrix.from_dense(dense).toarray(), dense)

    def test_no_entries_give_float_data(self):
        empty = np.array([], dtype=np.int64)
        assert CooMatrix.from_entries(empty, empty, np.array([]), (3, 4)).data.dtype == np.float64
        mat = build_sampling_matrix(16.0, 16, WidebandGrid(1.0, 64.0), support=[])
        assert mat.matrix.nnz == 0
        assert mat.matrix.data.dtype == np.float64
        assert mat.matrix.matvec(np.zeros(mat.matrix.shape[1])).dtype == np.float64
        assert mat.matrix.rmatvec(np.zeros(mat.matrix.shape[0])).dtype == np.float64

    def test_products_match_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n_cols = int(rng.integers(1, 40))
            shape = (int(rng.integers(1, 120)), n_cols)
            mat = CooMatrix.from_entries(*self.random_matrix(rng, shape, 200), shape)
            ref = as_csc(mat)
            x = rng.normal(size=n_cols)
            y = rng.normal(size=mat.shape[0])
            np.testing.assert_array_equal(mat.matvec(x), ref @ x)
            np.testing.assert_array_equal(mat.rmatvec(y), ref.T.tocsr() @ y)
            lo = int(rng.integers(0, n_cols))
            hi = int(rng.integers(lo + 1, n_cols + 1))
            np.testing.assert_array_equal(
                mat.gram_rows(lo, hi), (ref.T.tocsr() @ ref[:, lo:hi]).toarray().T
            )


class TestCoherence:
    def test_engineered_single_collision_value(self):
        # Support bins 9 and 49 fold onto the same record row only in the
        # 40-bin record, so mu = 40^2 / (40^2 + 41^2 + 43^2 + 44^2 + 47^2).
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=128.0)
        mats = [
            build_sampling_matrix(float(n), n, grid, support=[9, 49])
            for n in (40, 41, 43, 44, 47)
        ]
        report = coherence(mats)
        assert report.mu == pytest.approx(1600.0 / 9275.0, rel=1e-12)
        assert report.num_zero_columns == 0
        assert report.num_columns == 2

    def test_fully_colliding_columns_have_unit_coherence(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=128.0)
        mat = build_sampling_matrix(40.0, 40, grid, support=[9, 49])
        report = coherence([mat, mat])
        assert report.mu == pytest.approx(1.0, rel=1e-12)

    def test_counts_columns_no_record_can_see(self):
        # A half-duration record strides images two bins apart, so an odd
        # signed bin never lands within the interpolation width.
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(32.0, 16, grid, support=[9, 10])
        assert np.bincount(mat.matrix.cols, minlength=2).tolist() == [0, 1]
        report = coherence([mat, mat])
        assert report.num_zero_columns == 1
        assert report.mu == 0.0

    def test_columns_seen_only_on_dc_rows_count_as_zero(self):
        # At integer decimation bin 16 folds onto row 0 of a 16-bin record
        # alone, and the solved system drops DC rows.
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(16.0, 16, grid, support=[5, 16])
        assert mat.matrix.rows[mat.matrix.cols == 1].tolist() == [0]
        report = coherence([mat, mat])
        assert report.num_zero_columns == 1
        assert report.mu == 0.0

    def test_matches_the_scipy_oracle_to_two_ulp(self, monkeypatch):
        # Random interpolated designs, in blocks of fewer columns than the
        # design has. scipy's diagonal scaling leaves each column's entries
        # in descending row order, so its Gram sums run over rows in the
        # reverse order: where two columns share three or more rows, mu can
        # differ in the last bit (1 ulp on 22 of 300 such designs).
        monkeypatch.setattr(csrecon, "COHERENCE_BLOCK_ENTRIES", 3000)
        rng = np.random.default_rng(23)
        for _ in range(40):
            m_total = 2 * int(rng.integers(16, 200))
            grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=float(m_total))
            support = np.unique(rng.integers(0, m_total // 2 + 1, size=rng.integers(2, 120)))
            rates = rng.uniform(8.0, m_total, size=int(rng.integers(2, 6)))
            mats = [
                build_sampling_matrix(rate, int(rng.integers(4, rate + 1)), grid, support)
                for rate in rates
            ]
            np.testing.assert_array_max_ulp(
                coherence(mats).mu, scipy_coherence(solved_rows(mats)), maxulp=2
            )

    def test_shipped_design_equals_the_scipy_oracle(self, tmp_path, monkeypatch):
        # Bit for bit, on the solved rows of the shipped rate-design rates.
        matrices = []
        monkeypatch.setattr(
            "lockinsim.cli.coherence", lambda mats: matrices.append(mats) or coherence(mats)
        )
        out = tmp_path / "design.json"
        path = str(REPO_ROOT / "configs" / "wideband_recovery.yaml")
        assert main(["rate-design", "--config", path, "--out", str(out)]) == EXIT_OK
        ((mats,),) = [matrices]
        mu = json.loads(out.read_text())["result"]["coherence_mu"]
        assert mu == scipy_coherence(solved_rows(mats))

    def test_rate_design_reports_the_system_reconstruct_solves(self, tmp_path, monkeypatch):
        # Reconstruct on the periods rate-design proposes, and measure the
        # matrix handed to the solver.
        config = short_wideband_config(tmp_path)
        design = tmp_path / "design.json"
        assert main(["rate-design", "--config", str(config), "--out", str(design)]) == EXIT_OK
        result = json.loads(design.read_text())["result"]
        cfg = yaml.safe_load(config.read_text())
        cfg["reconstruction"]["sampling_periods_s"] = result["sampling_periods_s"]
        config.write_text(yaml.safe_dump(cfg))
        problems = capture_nnls_problems(monkeypatch)
        out = tmp_path / "recon.json"
        assert main(["reconstruct", "--config", str(config), "--out", str(out)]) == EXIT_OK
        ((a_matrix, _, _),) = problems
        assert a_matrix.shape[1] == result["num_columns"]
        # Unit columns and their Gram matrix in the library's summation
        # order; the scipy oracle sums in another order, within 2 ulp.
        pointers = a_matrix.column_pointers
        assert np.all(np.diff(pointers) > 0)
        inv_norm = 1.0 / np.sqrt(np.add.reduceat(a_matrix.data * a_matrix.data, pointers[:-1]))
        unit = CooMatrix(
            a_matrix.rows, a_matrix.cols, a_matrix.data * inv_norm[a_matrix.cols], a_matrix.shape
        )
        gram = unit.gram_rows(0, a_matrix.shape[1])
        np.fill_diagonal(gram, 0.0)
        mu = result["coherence_mu"]
        assert mu == np.abs(gram).max()
        np.testing.assert_array_max_ulp(mu, scipy_coherence(as_csc(a_matrix)), maxulp=2)

    def test_requires_two_matrices_on_a_common_design(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(16.0, 16, grid, support=[5])
        with pytest.raises(ValueError, match="two"):
            coherence([mat])
        other_grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=128.0)
        with pytest.raises(ValueError, match="grid"):
            coherence([mat, build_sampling_matrix(16.0, 16, other_grid, support=[5])])
        with pytest.raises(ValueError, match="support"):
            coherence([mat, build_sampling_matrix(16.0, 16, grid, support=[6])])


class TestNnls:
    def test_matches_reference_solver_on_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a_matrix = rng.normal(size=(20, 12))
            b = rng.normal(size=20)
            x_ours, info = nnls_active_set(a_matrix, b)
            x_ref, ref_residual = scipy_nnls(a_matrix, b)
            np.testing.assert_allclose(x_ours, x_ref, rtol=1e-8, atol=1e-10)
            assert info.residual_norm == pytest.approx(ref_residual, rel=1e-10)
            assert np.all(x_ours >= 0.0)

    def test_kkt_conditions_hold_at_the_solution(self):
        rng = np.random.default_rng(21)
        a_matrix = rng.normal(size=(30, 10))
        b = rng.normal(size=30)
        x, info = nnls_active_set(a_matrix, b)
        gradient = a_matrix.T @ (b - a_matrix @ x)
        scale = float(np.max(np.abs(a_matrix.T @ b)))
        # Complementarity: active gradient ~ 0, inactive gradient <= 0.
        assert np.all(np.abs(gradient[x > 0.0]) <= 1e-8 * scale)
        assert np.max(gradient[x == 0.0], initial=-np.inf) <= 1e-10 * scale
        assert info.kkt_max <= 1e-10 * scale

    def test_sparse_and_dense_inputs_agree(self):
        rng = np.random.default_rng(3)
        a_matrix = rng.normal(size=(25, 8))
        a_matrix[np.abs(a_matrix) < 0.8] = 0.0
        b = rng.normal(size=25)
        x_dense, _ = nnls_active_set(a_matrix, b)
        x_sparse, _ = nnls_active_set(CooMatrix.from_dense(a_matrix), b)
        np.testing.assert_allclose(x_sparse, x_dense, rtol=1e-12, atol=1e-14)

    def test_zero_gradient_returns_the_zero_solution(self):
        a_matrix = np.eye(4)
        x, info = nnls_active_set(a_matrix, np.zeros(4))
        np.testing.assert_array_equal(x, np.zeros(4))
        assert info.iterations == 0

    def test_iteration_cap_raises_with_diagnostics(self):
        rng = np.random.default_rng(5)
        a_matrix = rng.normal(size=(20, 12))
        x_ref, _ = scipy_nnls(a_matrix, rng.normal(size=20))
        b = a_matrix @ np.abs(rng.normal(size=12))
        with pytest.raises(NnlsError) as excinfo:
            nnls_active_set(a_matrix, b, max_iterations=1)
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual_norm > 0.0

    def test_shipped_solve_holds_the_gram_rows_sparse(self, shipped_problem):
        # Dense (k x columns) Gram rows peak at 32 MB on the shipped design.
        a_matrix, b, tol = shipped_problem
        tracemalloc.start()
        try:
            nnls_active_set(a_matrix, b, tol=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nnls_active_set(np.eye(4), np.zeros(5))

    def test_numerically_dependent_entering_column_raises(self):
        # Column 2 is column 1 plus 2^-30 e_2 - 2^-29 e_1: its gradient
        # 2^-30 passes the KKT threshold, but its Cholesky pivot
        # 1 - 2^-28 - (1 - 2^-29)^2 rounds to exactly zero.
        a_matrix = np.array([[1.0, 1.0 - 2.0**-29], [0.0, 2.0**-30], [0.0, 0.0]])
        b = np.array([1.0, 1.0, 0.0])
        with pytest.raises(NnlsError, match="numerically dependent") as excinfo:
            nnls_active_set(a_matrix, b)
        assert excinfo.value.iterations == 2
        assert math.isfinite(excinfo.value.residual_norm)


class TestNnlsMatchesReference:
    """The Cholesky solver retraces the dense least-squares oracle: same
    iterations, same support, components within rel 1e-12."""

    def test_wideband_recovery_problem(self, tmp_path, monkeypatch):
        # The oracle takes about a second on the short config.
        path = short_wideband_config(tmp_path)
        problems = capture_nnls_problems(monkeypatch)
        out = tmp_path / "out.json"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_OK
        ((a_matrix, b, tol),) = problems
        assert a_matrix.shape == (520, 362)
        assert_matches_reference(a_matrix, b, tol=tol)

    def test_phase_diagram_instances(self, monkeypatch):
        problems = capture_nnls_problems(monkeypatch)
        recovery_phase_diagram([1, 2, 3], [4, 5, 6], trials=3, seed=909, grid_bins=1024)
        assert len(problems) == 27
        for a_matrix, b, tol in problems:
            assert_matches_reference(a_matrix, b, tol=tol)

    def test_random_problems_through_the_drop_path(self, monkeypatch):
        refactors = count_refactors(monkeypatch)
        rng = np.random.default_rng(7)
        for _ in range(25):
            a_matrix = rng.normal(size=(20, 12))
            b = rng.normal(size=20)
            assert_matches_reference(a_matrix, b)
        assert refactors  # columns left the passive set

    def test_columns_enter_after_others_leave(self, monkeypatch):
        # A common positive offset correlates the columns, so the passive set
        # sheds columns and then takes on new ones: rows appended to L^-1
        # after a refactor.
        refactors = count_refactors(monkeypatch)
        rng = np.random.default_rng(13)
        regrown = 0
        for _ in range(20):
            a_matrix = rng.normal(size=(30, 20)) + 1.0
            b = rng.normal(size=30) + 2.0
            refactors.clear()
            x = assert_matches_reference(a_matrix, b)
            regrown += bool(refactors) and np.count_nonzero(x) > refactors[-1]
        assert regrown >= 5


class TestNnlsMatchesScipyGramSolver:
    """The Gram-column solver retraces the scipy.sparse solver it replaced:
    same iterations, bit-identical x and residual."""

    @staticmethod
    def assert_identical(a_matrix, b, tol):
        x, info = nnls_active_set(a_matrix, b, tol=tol)
        x_ref, iterations, residual = scipy_gram_nnls(a_matrix, b, tol=tol)
        assert info.iterations == iterations
        np.testing.assert_array_equal(x, x_ref)
        assert info.residual_norm == residual

    def test_phase_diagram_instances(self, monkeypatch):
        problems = capture_nnls_problems(monkeypatch)
        recovery_phase_diagram([1, 3, 5], [2, 4, 6], trials=3, seed=311, grid_bins=1024)
        assert len(problems) == 27
        for a_matrix, b, tol in problems:
            self.assert_identical(a_matrix, b, tol)

    def test_wideband_recovery_problem(self, tmp_path, monkeypatch, shipped_problem):
        problems = capture_nnls_problems(monkeypatch)
        out = tmp_path / "out.json"
        path = str(short_wideband_config(tmp_path))
        assert main(["reconstruct", "--config", path, "--out", str(out)]) == EXIT_OK
        (short_problem,) = problems
        assert short_problem[0].shape == (520, 362)
        for a_matrix, b, tol in (short_problem, shipped_problem):
            self.assert_identical(a_matrix, b, tol)


class TestWidebandSpectrum:
    def test_dense_and_bin_lookup(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=16.0)
        spectrum = WidebandSpectrum(
            grid=grid, support=np.array([3, 13]), components=np.array([4.0, 4.0])
        )
        dense = spectrum.dense()
        assert dense.shape == (16,)
        assert dense[3] == 4.0 and dense[13] == 4.0 and dense.sum() == 8.0
        assert spectrum.value_at_bin(3) == 4.0
        assert spectrum.value_at_bin(5) == 0.0
        np.testing.assert_allclose(spectrum.frequencies_hz, [3.0, 13.0])

    def test_rejects_negative_or_mismatched_components(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=16.0)
        with pytest.raises(ValueError):
            WidebandSpectrum(grid=grid, support=np.array([3]), components=np.array([-1.0]))
        with pytest.raises(ValueError, match=r"^components must be finite, got nan$"):
            WidebandSpectrum(
                grid=grid, support=np.array([3, 4]), components=np.array([1.0, math.nan])
            )
        with pytest.raises(ValueError):
            WidebandSpectrum(
                grid=grid, support=np.array([3, 4]), components=np.array([1.0])
            )


def cosine_record(freq_hz: float, amp: float, rate_hz: float, num: int, phase: float):
    k = np.arange(num)
    return 12.0 + amp * np.cos(2.0 * math.pi * freq_hz * k / rate_hz + phase)


class TestReconstruct:
    def test_identity_fold_recovers_squared_amplitudes(self):
        # With M = N_i the folding matrix is the identity (up to conjugates)
        # and a tone of count amplitude a must solve to exactly a^2.
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(64.0, 64, grid)
        values = cosine_record(9.0, 3.0, 64.0, 64, 0.4)
        spec = power_spectrum(values, sample_rate_hz=64.0)
        recovered, diag = reconstruct([spec], [mat], floor_subtraction="none")
        assert recovered.value_at_bin(9) == pytest.approx(9.0, rel=1e-9)
        assert recovered.value_at_bin(grid.conjugate_bin(9)) == pytest.approx(9.0, rel=1e-9)
        others = np.delete(recovered.dense(), [9, grid.conjugate_bin(9)])
        assert float(np.max(others)) <= 1e-9
        np.testing.assert_array_equal(diag.floor_estimates, [0.0])

    def test_two_records_resolve_tones_on_a_band_support(self):
        # Two integer-fold records at 12 and 15 Hz pin two tones (7 and
        # 11 Hz) among band decoys; the stacked solve is exact and record
        # independent in amplitude units.
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=60.0)
        support, _ = support_from_bands(grid, [(5.0, 13.0)])
        mats = [
            build_sampling_matrix(12.0, 12, grid, support=support),
            build_sampling_matrix(15.0, 15, grid, support=support),
        ]
        specs = [
            power_spectrum(
                cosine_record(7.0, 2.0, rate, num, 0.3)
                + cosine_record(11.0, 1.5, rate, num, 1.2)
                - 12.0,
                sample_rate_hz=rate,
            )
            for rate, num in [(12.0, 12), (15.0, 15)]
        ]
        recovered, _ = reconstruct(specs, mats, floor_subtraction="none")
        assert recovered.value_at_bin(7) == pytest.approx(4.0, abs=1e-8)
        assert recovered.value_at_bin(11) == pytest.approx(2.25, abs=1e-8)
        assert recovered.value_at_bin(53) == pytest.approx(4.0, abs=1e-8)
        assert recovered.value_at_bin(49) == pytest.approx(2.25, abs=1e-8)
        dense = recovered.dense()
        dense[[7, 11, 49, 53]] = 0.0
        assert float(np.max(dense)) <= 1e-8

    def test_half_grid_bin_folds_both_of_its_images(self):
        # A band ending at f_nyq/2 holds the self-conjugate bin M/2 = 32. A
        # tone there folds to record bins n and N_i - n; its column needs
        # the images of both +32 and -32 Hz to explain its power.
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        support, _ = support_from_bands(grid, [(26.0, 32.0)])
        rates = (19, 20, 23)
        mats = [build_sampling_matrix(float(n), n, grid, support) for n in rates]
        specs = [
            power_spectrum(
                cosine_record(32.0, 1.0, n, n, 0.3)
                + cosine_record(27.0, 0.5, n, n, 1.1)
                - 24.0,
                sample_rate_hz=float(n),
            )
            for n in rates
        ]
        recovered, diag = reconstruct(specs, mats, floor_subtraction="none", tol=1e-12)
        nonzero = recovered.components > 0.0
        assert recovered.support[nonzero].tolist() == [27, 32, 37]
        np.testing.assert_allclose(
            recovered.components[nonzero], [0.25, 1.0, 0.25], rtol=1e-9, atol=0.0
        )
        assert diag.residual_norm < 1e-12

    def test_median_floor_subtraction_reports_per_record_floors(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(64.0, 64, grid)
        values = cosine_record(9.0, 3.0, 64.0, 64, 0.4)
        spec = power_spectrum(values, sample_rate_hz=64.0)
        _, diag = reconstruct([spec], [mat], floor_subtraction="median")
        assert diag.floor_estimates[0] == pytest.approx(
            float(np.median(spec.power[1:])), rel=1e-12
        )

    def test_validates_pairing_and_consistency(self):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(64.0, 64, grid)
        values = cosine_record(9.0, 3.0, 64.0, 64, 0.4)
        spec = power_spectrum(values, sample_rate_hz=64.0)
        with pytest.raises(ValueError, match="equally many"):
            reconstruct([spec, spec], [mat])
        for unknown in ("mean", None):  # "none" is the one spelling of no floor
            with pytest.raises(ValueError, match="floor_subtraction"):
                reconstruct([spec], [mat], floor_subtraction=unknown)
        short = power_spectrum(values[:32], sample_rate_hz=64.0)
        with pytest.raises(ValueError, match="N="):
            reconstruct([short], [mat])
        wrong_rate = power_spectrum(values, sample_rate_hz=32.0)
        with pytest.raises(ValueError, match="rate"):
            reconstruct([wrong_rate], [mat])
        other = build_sampling_matrix(64.0, 64, grid, support=[9])
        with pytest.raises(ValueError, match="support"):
            reconstruct([spec, spec], [mat, other])


class TestConjugateFold:
    """reconstruct solves one column per conjugate pair on record rows
    1 .. floor(N_i/2) and mirrors the solution back."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shipped_design_output_is_exactly_mirror_symmetric(self, tmp_path, seed):
        out = tmp_path / "out.json"
        argv = ["reconstruct", "--config", str(short_wideband_config(tmp_path))]
        assert main(argv + ["--seed", str(seed), "--out", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())["result"]
        m_total = result["grid_bins"]
        components = dict(zip(result["nonzero_bins"], result["nonzero_components"]))
        assert len(components) > 14
        for m, value in components.items():
            assert components.get((m_total - m) % m_total) == value, m

    def test_folded_objective_is_half_the_two_sided_one(self, monkeypatch):
        # An even record (its Nyquist row weighted by sqrt(1/2)) and two odd
        # ones, with interpolated folds; the support holds the
        # self-conjugate DC bin.
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        m_total = grid.num_bins
        support, _ = support_from_bands(grid, [(0.0, 31.0)])
        rng = np.random.default_rng(17)
        records = [(14.5, 14), (15.0, 15), (13.3, 13)]
        mats = [build_sampling_matrix(rate, n, grid, support) for rate, n in records]
        specs = [
            power_spectrum(rng.normal(size=n), sample_rate_hz=rate) for rate, n in records
        ]
        assert np.any(mats[0].matrix.rows == 7)  # the even record's Nyquist row is used
        problems = capture_nnls_problems(monkeypatch)
        reconstruct(specs, mats)
        ((a_folded, b_folded, _),) = problems

        # Two-sided problem: the support and its mirrors, and the mirrored
        # spectrum on every row but DC that they fold to.
        both = np.unique(np.concatenate([support, (m_total - support) % m_total]))
        blocks, data = [], []
        for spec, (rate, n) in zip(specs, records):
            full = two_sided_sampling_matrix(rate, n, grid, both).tocsr()
            power = spec.power - np.median(spec.power[1:])
            mirrored = np.concatenate([power, power[1 : (n + 1) // 2][::-1]])
            rows = np.setdiff1d(full.tocoo().row, [0])
            blocks.append(full[rows, :])
            data.append(mirrored[rows] * 4.0 / (m_total * n))
        a_full = sp.vstack(blocks, format="csr")
        b_full = np.concatenate(data)

        assert a_folded.shape[1] == support.size
        for _ in range(5):
            y = rng.uniform(0.0, 2.0, support.size)
            values = dict(zip(support.tolist(), y))
            x = np.array([values[min(m, m_total - m)] for m in both.tolist()])
            folded = 2.0 * float(np.sum((a_folded.toarray() @ y - b_folded) ** 2))
            two_sided = float(np.sum((a_full @ x - b_full) ** 2))
            assert folded == pytest.approx(two_sided, rel=1e-12)


class TestRecoveryPhaseDiagram:
    def test_success_improves_with_more_records(self):
        success = recovery_phase_diagram([2], [1, 4], trials=6, seed=99, grid_bins=256)
        assert success.shape == (1, 2)
        assert success[0, 1] == 1.0
        assert success[0, 0] < success[0, 1]

    def test_validates_scale_and_trials(self):
        with pytest.raises(ValueError, match="desk-scale"):
            recovery_phase_diagram([1], [2], trials=1, seed=0, grid_bins=8192)
        with pytest.raises(ValueError, match="trials"):
            recovery_phase_diagram([1], [2], trials=0, seed=0)
        with pytest.raises(ValueError, match="trials must be an integer"):
            recovery_phase_diagram([1], [2], trials=2.5, seed=0)

    def test_refuses_more_tones_than_admissible_bins(self):
        # 511 forward bins in [1, 512), fewer once DC and Nyquist folds go.
        with pytest.raises(ValueError, match="sparsity 600 exceeds the"):
            recovery_phase_diagram([600], [4], trials=1, seed=0)


class TestDesignRates:
    def test_deterministic_distinct_descending_quantized(self):
        rates = design_rates(7, 1.31524e-3, 2e-5, seed=11)
        again = design_rates(7, 1.31524e-3, 2e-5, seed=11)
        np.testing.assert_array_equal(rates, again)
        periods = 1.0 / rates
        assert len(set(periods.tolist())) == 7
        assert np.all(np.diff(rates) < 0.0)
        deltas = (periods - 1.31524e-3) / 1e-7
        np.testing.assert_allclose(deltas, np.round(deltas), atol=1e-6)
        assert float(periods.max()) <= 1.31524e-3 + 2e-5 + 1e-12

    def test_top_delay_level_survives_rounding_of_the_level_count(self):
        # 0.3 / 0.1 rounds to 2.9999999999999996: four levels, 0 .. 0.3 s.
        rates = design_rates(4, 1.0, 0.3, 1, time_grid_s=0.1)
        np.testing.assert_allclose(1.0 / rates, [1.0, 1.1, 1.2, 1.3], rtol=1e-15)

    def test_validates_counts_and_grid(self):
        with pytest.raises(ValueError):
            design_rates(1, 1e-3, 1e-5, seed=0)
        with pytest.raises(ValueError):
            design_rates(7, 1e-3, -1e-5, seed=0)
        with pytest.raises(ValueError, match="too coarse"):
            design_rates(7, 1e-3, 3e-7, seed=0)


class TestMatrixCsv:
    def test_export_is_parseable_and_deterministic(self, tmp_path):
        grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=64.0)
        mat = build_sampling_matrix(8.0, 10, grid, support=[9, 10])
        path_a = write_matrix_csv(mat, tmp_path / "a.csv")
        path_b = write_matrix_csv(mat, tmp_path / "b.csv")
        assert path_a.read_bytes() == path_b.read_bytes()
        lines = path_a.read_text().splitlines()
        assert lines[4] == "row,wideband_bin,weight"
        dense = mat.matrix.toarray()
        support_index = {int(s): j for j, s in enumerate(mat.support)}
        parsed = 0
        for line in lines[5:]:
            row_s, bin_s, weight_s = line.split(",")
            weight = float(weight_s)  # exports round-trip through float()
            assert weight == pytest.approx(
                dense[int(row_s), support_index[int(bin_s)]], rel=1e-15
            )
            parsed += 1
        assert parsed == mat.matrix.nnz
