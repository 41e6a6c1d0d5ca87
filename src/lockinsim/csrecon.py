"""Compressive-sampling reconstruction of a sparse wideband power spectrum.

Several records are acquired at slightly different sub-Nyquist rates
f_s^(i) = 1/t_s^(i); each tone folds to a different pattern of record bins,
and a sparse non-negative wideband spectrum X on a grid of resolution 1/T
(M = T * f_nyq bins covering [0, f_nyq), conjugate of bin m at M - m) can
be recovered by non-negative least squares from the stacked linear systems

    Y_i ~= Phi_i X,

where the sampling matrix Phi_i maps wideband bin m to the record bins its
fold lands on. A real signal's spectrum is mirror-symmetric, so X is solved
on the forward bins 0 <= m <= M/2 and Y_i on the one-sided record rows
0 .. floor(N_i/2). Record i (N_i bins, duration T_i = N_i / f_s^(i)) images
record bin n at signed wideband positions a = (n + l N_i) * (T / T_i) for
all integers l; column m of Phi_i therefore collects every integer
k = n + l N_i whose image position a = k T / T_i lies within one grid bin
of the signed frequency +m or -m, with linear interpolation ("hat") weight
w = 1 - |+-m - a| (the floor/ceil weight pair of an off-grid image sums to
1), at row n = k mod N_i if n <= N_i/2, scaled by N_i / M. Bin 0 is its own
conjugate and counts its images once; bin M/2 collects the images of both
+M/2 and -M/2.

Exact recovery of s tones from p incoherent records is expected for
p > 2s - 1 (noiseless); the mutual coherence mu (largest normalized column
inner product of the stacked system :func:`reconstruct` solves) measures
design quality.

The module needs numpy alone. Matrices are :class:`CooMatrix` triplets in
column-major order. Both the NNLS and the coherence work from Gram rows
A^T a_j, gathered from the rows of A that column j touches, so the NNLS
loop holds no A or A^T mat-vec. The NNLS inverse Cholesky factor is only
ever grown, by one row per entering column; when columns leave the passive
set, the factor and the stored Gram rows are regrown from the columns that
stay, in the order they entered, at one Gram row each. No dense
factorization is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from ._io import check_range, csv_blocks, frozen
from .spectral import PowerSpectrum, _median

__all__ = [
    "CooMatrix",
    "WidebandGrid",
    "SamplingMatrix",
    "WidebandSpectrum",
    "CoherenceReport",
    "RateDesignConfig",
    "NnlsInfo",
    "NnlsError",
    "ReconstructionDiagnostics",
    "support_from_bands",
    "build_sampling_matrix",
    "check_coherence_size",
    "coherence",
    "nnls_active_set",
    "reconstruct",
    "recovery_phase_diagram",
    "design_rates",
    "write_matrix_csv",
]


COHERENCE_BLOCK_ENTRIES = 1 << 20  # Gram block size: block columns x all columns
COHERENCE_MAX_ENTRIES = 1 << 32  # Gram entries coherence forms at most (~9 s)
PHASE_DIAGRAM_RECORD_BINS = (48, 96)  # record lengths drawn from [48, 96)
PHASE_DIAGRAM_AMPLITUDES = (0.5, 2.0)  # tone components drawn from [0.5, 2)


# np.unique(values) imports numpy.ma on first use (15 ms), and reconstruct
# needs nothing else from it; this gives the same result.
def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array."""
    values = np.sort(values)
    distinct = np.ones(values.size, dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    return values[distinct]


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """A sparse matrix as coordinate triplets in column-major order (sorted
    by column, then row), with no duplicate coordinates.

    Products are sums taken in ascending row order, one term at a time, as
    a compressed-sparse-column mat-vec sums them.

    Attributes:
        rows: Row index of each stored entry.
        cols: Column index of each stored entry.
        data: Value of each stored entry.
        shape: (rows, columns).
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_entries(
        cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape: tuple[int, int]
    ) -> CooMatrix:
        """Sort entries into column-major order and sum duplicates (in the
        order given)."""
        n_rows = int(shape[0])
        keys, inverse = np.unique(
            np.asarray(cols, dtype=np.int64) * n_rows + np.asarray(rows, dtype=np.int64),
            return_inverse=True,
        )
        summed = np.bincount(inverse, weights=np.asarray(data, dtype=float), minlength=keys.size)
        summed = summed.astype(float, copy=False)  # bincount sums no entries to int64
        return cls(keys % n_rows, keys // n_rows, summed, (n_rows, int(shape[1])))

    @classmethod
    def from_dense(cls, array: np.ndarray) -> CooMatrix:
        """The nonzero entries of a 2-D array."""
        array = np.asarray(array, dtype=float)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {array.shape}")
        cols, rows = np.nonzero(array.T)
        return cls(rows, cols, array[rows, cols], array.shape)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    def toarray(self) -> np.ndarray:
        """Dense copy."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.data
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        ax = np.bincount(self.rows, weights=self.data * x[self.cols], minlength=self.shape[0])
        return ax.astype(float, copy=False)  # bincount sums no entries to int64

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y."""
        aty = np.bincount(self.cols, weights=self.data * y[self.rows], minlength=self.shape[1])
        return aty.astype(float, copy=False)  # bincount sums no entries to int64

    @cached_property
    def column_pointers(self) -> np.ndarray:
        """Column j holds entries column_pointers[j] .. column_pointers[j+1]."""
        return np.concatenate([[0], np.cumsum(np.bincount(self.cols, minlength=self.shape[1]))])

    @cached_property
    def _padded_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns and values of each row, ascending by column, padded to
        the longest row with column n_cols and value 0."""
        counts = np.bincount(self.rows, minlength=self.shape[0])
        order = np.argsort(self.rows, kind="stable")
        rows = self.rows[order]
        slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        width = int(counts.max(initial=0))
        cols = np.full((self.shape[0], width), self.shape[1])
        data = np.zeros((self.shape[0], width))
        cols[rows, slot] = self.cols[order]
        data[rows, slot] = self.data[order]
        return cols, data

    def gram_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo .. hi-1 of A^T A, as a (hi - lo, n_cols) array.

        Row j - lo is A^T a_j: the rows of A that column j touches, scaled
        by its entries and gathered, for all hi - lo columns at once, into
        one bincount. Every entry is summed over ascending rows of A; the
        row padding lands in an extra column that is dropped.
        """
        n_cols = self.shape[1]
        first, last = self.column_pointers[lo], self.column_pointers[hi]
        row_cols, row_data = self._padded_rows
        rows = self.rows[first:last]
        keys = ((self.cols[first:last] - lo) * (n_cols + 1))[:, None] + row_cols[rows]
        gram = np.bincount(
            keys.ravel(),
            weights=(self.data[first:last, None] * row_data[rows]).ravel(),
            minlength=(hi - lo) * (n_cols + 1),
        )
        return gram.reshape(hi - lo, n_cols + 1)[:, :n_cols]


@dataclass(frozen=True)
class WidebandGrid:
    """The two-sided wideband frequency grid.

    Attributes:
        duration_s: Nominal duration T; grid resolution is 1/T.
        nyquist_rate_hz: Rate f_nyq a conventional sampler would need; the
            grid's M = T * f_nyq bins cover [0, f_nyq) with the conjugate of
            bin m at M - m (physical tones live below f_nyq / 2).
    """

    duration_s: float
    nyquist_rate_hz: float

    def __post_init__(self) -> None:
        check_range(0, strict=True, duration_s=self.duration_s)
        check_range(0, strict=True, nyquist_rate_hz=self.nyquist_rate_hz)
        m = self.duration_s * self.nyquist_rate_hz
        check_range(None, **{"duration_s * nyquist_rate_hz": m})
        if abs(m - round(m)) > 1e-6:
            raise ValueError(f"duration_s * nyquist_rate_hz must be a whole number, got {m}")
        check_range(2, num_bins=self.num_bins)

    @property
    def num_bins(self) -> int:
        """M = T * f_nyq."""
        return int(round(self.duration_s * self.nyquist_rate_hz))

    @property
    def resolution_hz(self) -> float:
        """Grid spacing 1/T."""
        return 1.0 / self.duration_s

    def record_bins(self, sample_rate_hz: float) -> int:
        """Length N = floor(T f_s) of a record at rate f_s spanning T, with
        T f_s a hair below an integer rounded up to it."""
        n = self.duration_s * sample_rate_hz
        check_range(None, **{"duration_s * sample_rate_hz": n})
        return int(math.floor(n + 1e-9))

    def frequency_hz(self, bins: int | np.ndarray) -> np.ndarray:
        """Absolute frequency of grid bin(s)."""
        return np.asarray(bins) * self.resolution_hz

    def bin_of(self, frequency_hz: float, tol: float = 1e-6) -> int:
        """Grid bin of an on-grid frequency (errors if off-grid by > tol bins)."""
        pos = frequency_hz * self.duration_s
        m = int(round(pos))
        if abs(pos - m) > tol:
            raise ValueError(
                f"frequency {frequency_hz} Hz is off-grid by {pos - m} bins"
            )
        if not (0 <= m < self.num_bins):
            raise ValueError(f"frequency {frequency_hz} Hz outside the grid")
        return m

    def conjugate_bin(self, m: int) -> int:
        """Mirror bin (M - m) mod M."""
        return (self.num_bins - int(m)) % self.num_bins


def support_from_bands(
    grid: WidebandGrid,
    bands_hz: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, bool]:
    """Forward support bins (0 <= m <= M/2) for a union of frequency bands.

    Args:
        grid: The wideband grid.
        bands_hz: (f_lo, f_hi) pairs in Hz, each within [0, f_nyq/2].

    Returns:
        (sorted unique bin indices, overlap flag); the flag is True when the
        requested bands overlap each other (e.g. passbands of two harmonic
        orders), before deduplication.
    """
    chunks: list[np.ndarray] = []
    total = 0
    for f_lo, f_hi in bands_hz:
        if not (0.0 <= f_lo < f_hi):
            raise ValueError(f"invalid band ({f_lo}, {f_hi})")
        if f_hi > grid.nyquist_rate_hz / 2.0:
            raise ValueError(
                f"band ({f_lo}, {f_hi}) exceeds the physical half-grid "
                f"{grid.nyquist_rate_hz / 2.0} Hz"
            )
        lo = int(math.ceil(f_lo * grid.duration_s - 1e-9))
        hi = int(math.floor(f_hi * grid.duration_s + 1e-9))
        if hi < lo:
            raise ValueError(
                f"band ({f_lo}, {f_hi}) holds no bin of the "
                f"{grid.resolution_hz} Hz grid"
            )
        bins = np.arange(lo, hi + 1, dtype=np.int64)
        chunks.append(bins)
        total += bins.size
    forward = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    support = _unique(forward)
    return support, bool(support.size < total)


@dataclass(frozen=True)
class SamplingMatrix:
    """The interpolated folding matrix of one undersampled record.

    ``matrix`` has one row per one-sided record bin 0 .. floor(N_i/2) and
    one column per support entry; column j corresponds to the conjugate pair
    of forward wideband bin ``support[j]``. Entries are sums of hat
    interpolation weights in [0, 1] scaled by N_i / M.

    Attributes:
        sample_rate_hz: Record rate f_s^(i).
        num_record_bins: N_i (record length; T_i = N_i / f_s^(i)).
        grid: Wideband grid shared by all records of a reconstruction.
        support: Sorted forward wideband bins (<= M/2) the columns
            correspond to.
        matrix: Sparse :class:`CooMatrix` of shape
            (floor(N_i/2) + 1, len(support)).
    """

    sample_rate_hz: float
    num_record_bins: int
    grid: WidebandGrid
    support: np.ndarray
    matrix: CooMatrix

    @property
    def record_duration_s(self) -> float:
        """T_i = N_i / f_s^(i)."""
        return self.num_record_bins / self.sample_rate_hz

    @property
    def scale(self) -> float:
        """The uniform entry scale N_i / M."""
        return self.num_record_bins / self.grid.num_bins


def build_sampling_matrix(
    sample_rate_hz: float,
    num_record_bins: int,
    grid: WidebandGrid,
    support: np.ndarray | Sequence[int] | None = None,
) -> SamplingMatrix:
    """Build the one-sided folding matrix Phi_i of one record.

    For every support column m, all image positions a = k * (T / T_i)
    (k any integer, row n = k mod N_i) with |m - a| < 1 contribute weight
    (1 - |m - a|) * N_i / M at row n, and their mirrors -k (images of -m)
    the same weight at row (-k) mod N_i; only rows n <= N_i/2 are kept, and
    bin 0, its own mirror, counts its images once. Integer folds (T_i = T
    and integer decimation) produce exactly one entry per column, of weight
    N_i / M (twice that on the DC or Nyquist row).

    Args:
        sample_rate_hz: f_s^(i) > 0.
        num_record_bins: N_i >= 2.
        grid: Wideband grid (f_nyq must cover the record: f_nyq >= f_s).
        support: Forward wideband bins (0 <= m <= M/2) to build columns for
            (default: all of them — sized M/2, so only sensible for small
            grids).

    Returns:
        The sparse :class:`SamplingMatrix`.
    """
    check_range(0, strict=True, sample_rate_hz=sample_rate_hz)
    check_range(2, integer=True, num_record_bins=num_record_bins)
    m_total = grid.num_bins
    if sample_rate_hz > grid.nyquist_rate_hz:
        raise ValueError(
            f"record rate {sample_rate_hz} exceeds the grid Nyquist rate "
            f"{grid.nyquist_rate_hz}"
        )
    if support is None:
        support_arr = np.arange(m_total // 2 + 1, dtype=np.int64)
    else:
        check_range(0, high=m_total / 2, integer=True, support=np.asarray(support))
        support_arr = _unique(np.asarray(support, dtype=np.int64))

    n_i = int(num_record_bins)
    t_i = n_i / sample_rate_hz
    ratio = grid.duration_s / t_i  # wideband bins per unit k
    forward = support_arr.astype(float)

    # Candidate integers k with image position a = k * ratio within one bin
    # of m: k in [(m-1)/ratio, (m+1)/ratio], one row of candidates per
    # offset from the lowest; entries are taken offset by offset.
    k_lo = np.ceil((forward - 1.0) / ratio).astype(np.int64)
    k = k_lo + np.arange(int(math.floor(2.0 / ratio)) + 2)[:, None]
    w = 1.0 - np.abs(forward - k * ratio)
    valid = w > 1e-12
    cols = np.nonzero(valid)[1]
    k = k[valid]
    weights = w[valid] * (n_i / m_total)
    # Images of -m are the mirrors -k of those of +m, with the same weights.
    mirrored = support_arr[cols] != 0
    rows = np.concatenate([k % n_i, -k[mirrored] % n_i])
    cols = np.concatenate([cols, cols[mirrored]])
    weights = np.concatenate([weights, weights[mirrored]])
    kept = rows <= n_i // 2
    return SamplingMatrix(
        sample_rate_hz=float(sample_rate_hz),
        num_record_bins=n_i,
        grid=grid,
        support=support_arr,
        matrix=CooMatrix.from_entries(
            rows[kept], cols[kept], weights[kept], (n_i // 2 + 1, support_arr.size)
        ),
    )


@dataclass(frozen=True)
class CoherenceReport:
    """Mutual coherence of a stacked sampling-matrix design.

    Attributes:
        mu: max_{i != j} |<phi_i, phi_j>| over l2-normalized columns.
        num_zero_columns: Columns with no entry on a solved row of any
            record, such as a column seen only on DC rows (excluded from
            normalization).
        num_columns: Total columns evaluated.
    """

    mu: float
    num_zero_columns: int
    num_columns: int


def _solved_system(
    matrices: Sequence[SamplingMatrix],
) -> tuple[CooMatrix, list[tuple[np.ndarray, np.ndarray]]]:
    """The stacked one-sided system :func:`reconstruct` solves.

    Each record contributes its rows 1 .. floor(N_i/2) that the support
    folds to, in ascending order; the DC row is dropped. The row N_i/2 of an
    even N_i stands for itself alone in the two-sided record, and is
    weighted by sqrt(1/2), so the objective is exactly half the two-sided
    one at the mirrored X.

    Args:
        matrices: >= 1 matrices sharing one grid and one support.

    Returns:
        (A, kept): A has one column per support bin, and ``kept[i]`` holds
        the record rows of ``matrices[i]`` that A keeps, with their weights.

    Raises:
        ValueError: If a matrix has another grid or another support.
    """
    grid, support = matrices[0].grid, matrices[0].support
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    num_rows = 0
    for mat in matrices:
        if mat.grid != grid:
            raise ValueError("all matrices must share the same wideband grid")
        if mat.support.shape != support.shape or np.any(mat.support != support):
            raise ValueError("all matrices must share the same support")
        row_weight = np.ones(mat.num_record_bins // 2 + 1)
        if mat.num_record_bins % 2 == 0:
            row_weight[-1] = math.sqrt(0.5)
        coo = mat.matrix
        keep = coo.rows >= 1
        touched, row = np.unique(coo.rows[keep], return_inverse=True)
        rows.append(row + num_rows)
        cols.append(coo.cols[keep])
        weights.append(coo.data[keep] * row_weight[coo.rows[keep]])
        kept.append((touched, row_weight[touched]))
        num_rows += int(touched.size)
    # Each block is column-major with distinct coordinates, and the blocks
    # hold ascending rows, so a stable sort by column alone orders the stack.
    # Each array is gathered as soon as it is joined, to bound the peak.
    order = np.argsort(np.concatenate(cols), kind="stable")
    stacked = [np.concatenate(part)[order] for part in (rows, cols, weights)]
    return CooMatrix(*stacked, (num_rows, support.size)), kept


def check_coherence_size(n_cols: int) -> None:
    """Refuse, with a ValueError naming ``support_bands_hz``, a support of
    ``n_cols`` columns whose coherence would form more than
    ``COHERENCE_MAX_ENTRIES`` Gram entries; its matrices need not exist."""
    if n_cols * n_cols > COHERENCE_MAX_ENTRIES:
        raise ValueError(
            f"coherence of {n_cols} support columns forms {n_cols * n_cols} Gram "
            f"entries, above {COHERENCE_MAX_ENTRIES}: narrow support_bands_hz"
        )


def coherence(matrices: Sequence[SamplingMatrix]) -> CoherenceReport:
    """Mutual coherence of the stacked system :func:`reconstruct` solves
    (memory-bounded, exact).

    Columns are scaled to unit norm and the Gram matrix is formed by
    :meth:`CooMatrix.gram_rows`, for as many columns at a time as keep a
    block within ``COHERENCE_BLOCK_ENTRIES`` entries. The n_cols^2 Gram
    entries take about 2 ns each on one Xeon core.

    Args:
        matrices: >= 2 matrices sharing the same grid and support.

    Raises:
        ValueError: On fewer than two matrices, mismatched grids/support, or
            more than ``COHERENCE_MAX_ENTRIES`` Gram entries.
    """
    if len(matrices) < 2:
        raise ValueError("coherence requires at least two matrices")
    n_cols = int(matrices[0].support.size)
    check_coherence_size(n_cols)
    system, _ = _solved_system(matrices)
    # Every stored entry is a positive sum of hat weights, so the columns
    # with entries are those of nonzero norm; the others add zero Gram rows.
    # Column sums by reduceat, as scipy.sparse forms them (pairwise).
    pointers = system.column_pointers
    filled = np.flatnonzero(np.diff(pointers))
    inv_norm = np.zeros(n_cols)
    squares = system.data * system.data
    inv_norm[filled] = 1.0 / np.sqrt(np.add.reduceat(squares, pointers[filled]))
    unit = CooMatrix(system.rows, system.cols, system.data * inv_norm[system.cols], system.shape)

    mu = 0.0
    step = max(1, COHERENCE_BLOCK_ENTRIES // max(n_cols, 1))
    for lo in range(0, n_cols, step):
        block = unit.gram_rows(lo, min(lo + step, n_cols))
        block[np.arange(block.shape[0]), np.arange(lo, lo + block.shape[0])] = 0.0
        mu = max(mu, float(np.abs(block, out=block).max()))
    return CoherenceReport(mu=mu, num_zero_columns=n_cols - filled.size, num_columns=n_cols)


@dataclass(frozen=True)
class NnlsInfo:
    """Termination record of an active-set NNLS solve that met the KKT
    tolerance (one that stops short raises :class:`NnlsError`)."""

    iterations: int
    residual_norm: float
    kkt_max: float


class NnlsError(RuntimeError):
    """Raised when NNLS stops short of the KKT tolerance: at the iteration
    cap, or when an entering column is numerically dependent on the passive
    columns."""

    def __init__(self, message: str, iterations: int, residual_norm: float):
        super().__init__(
            f"{message} (iterations={iterations}, residual_norm={residual_norm})"
        )
        self.iterations = iterations
        self.residual_norm = residual_norm


def nnls_active_set(
    a_matrix: CooMatrix | np.ndarray,
    b: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, NnlsInfo]:
    """Solve min ||A x - b||_2 subject to x >= 0 (Lawson-Hanson active set).

    Columns enter the passive set P by largest positive gradient
    w = A^T (b - A x) (the lowest index among ties). The solver works in the
    Gram form of Bro & De Jong (1997) and never multiplies by A or A^T
    inside the loop. With c = A^T b and G = A^T A, the gradient is
    w = c - x_P G_P, where G_P holds the Gram rows A^T a_j of the passive
    columns, each formed once, as j enters, by :meth:`CooMatrix.gram_rows`
    (a sparse solution enters few columns, so G is never formed whole).
    Only the nonzeros of each row are kept: their columns and values in two
    flat arrays, row after row in passive order, and each row's count, in
    buffers that double when full. The gradient is one repeat of x_P, one
    product and one bincount over them, and memory is O(k r + k^2) for k
    passive columns of r nonzero Gram entries each; no (k x columns) array
    is formed. The unconstrained subproblem on P is G_PP z = c_P. The solver
    keeps R = L^-1, the inverse of the lower Cholesky factor L of G_PP, so
    that z = R^T (R c_P) takes two mat-vecs and no triangular solve. An
    entering column j takes one step: its Gram row, l = R G_Pj, the pivot
    d = sqrt(G_jj - l.l), one row [-(l^T R) / d, 1 / d] appended to R, and
    the row's nonzeros stored. When columns leave P, R and the stored rows
    are regrown from the columns that stay, in the order they entered, by
    that same step, so R is bit for bit the factor the solver would hold had
    the dropped columns never entered. A regrowth of k columns forms k Gram
    rows again (12-25 us each on the shipped 3602-column design, on one
    Xeon core); no shipped or phase-diagram solve drops a column. x depends
    only on the order in which columns enter, on R and on c, none of which
    reads w, so the summation order of the gradient moves only its last
    bits (``kkt_max``), and x moves only if such a bit changes which column
    enters. The residual b - A x is formed once, on exit. Terminates when
    max(w over active columns) <= tol * ||A^T b||_inf (KKT).

    Args:
        a_matrix: A, as a :class:`CooMatrix` or a dense 2-D array.
        tol: Relative KKT tolerance, finite and > 0.

    Raises:
        ValueError: If ``b`` is not a finite vector of one entry per row,
            or ``tol`` is not finite and > 0.
        NnlsError: After ``max_iterations`` (default max(3 * column count,
            30), the scipy.optimize.nnls cap), or when a column entering P,
            or re-entering it in a regrowth, is numerically dependent on P
            (its pivot is not positive; the normal equations square the
            condition number of A_P).

    Returns:
        (x, info) with x >= 0 elementwise.
    """
    a = a_matrix if isinstance(a_matrix, CooMatrix) else CooMatrix.from_dense(a_matrix)
    b = np.asarray(b, dtype=float)
    n_rows, n_cols = a.shape
    if b.shape != (n_rows,):
        raise ValueError(f"b must have shape ({n_rows},), got {b.shape}")
    check_range(None, b=b)
    check_range(0, strict=True, tol=tol)
    if max_iterations is None:
        max_iterations = max(3 * n_cols, 30)

    def residual_norm() -> float:
        return float(np.linalg.norm(b - a.matvec(x)))

    c = a.rmatvec(b)
    x = np.zeros(n_cols)
    w_scale = float(np.max(np.abs(c))) if n_cols else 0.0
    if w_scale == 0.0:
        return x, NnlsInfo(0, float(np.linalg.norm(b)), 0.0)
    threshold = tol * w_scale
    # P is passive_buf[:k], in the order its columns entered, and x is zero
    # off P. The Gram row of the p-th passive column is held as its
    # row_nnz[p] nonzeros, G_P[p, cols[e]] = values[e], and the rows follow
    # one another in passive order in the first n_entries slots of ``cols``
    # and ``values``. R = L^-1 for the lower Cholesky factor L of G_PP is the
    # leading k x k block of ``inv_chol``. R is lower triangular and the
    # mat-vecs read the whole block, so ``inv_chol`` is kept zero above its
    # diagonal.
    passive_buf = np.empty(64, dtype=np.int64)
    row_nnz = np.empty(64, dtype=np.int64)
    passive_mask = np.zeros(n_cols, dtype=bool)
    cols = np.empty(1024, dtype=np.int64)
    values = np.empty(1024)
    inv_chol = np.zeros((64, 64))
    k = n_entries = 0
    passive = passive_buf[:k]

    def enter(j: int) -> None:
        """Append column j to P: its Gram row, and a row of R."""
        nonlocal passive_buf, row_nnz, cols, values, inv_chol, k, n_entries, passive
        gram_row = a.gram_rows(j, j + 1)[0]
        r_block = inv_chol[:k, :k]
        l_row = r_block @ gram_row[passive]
        pivot_sq = gram_row[j] - float(l_row @ l_row)
        if not pivot_sq > 0.0:
            raise NnlsError(
                f"entering column {j} is numerically dependent on the "
                f"{k} passive columns",
                iterations,
                residual_norm(),
            )
        pivot = math.sqrt(pivot_sq)
        if k == inv_chol.shape[0]:
            grown = np.zeros((2 * k, 2 * k))
            grown[:k, :k] = inv_chol
            inv_chol = grown
            passive_buf, row_nnz = np.resize(passive_buf, 2 * k), np.resize(row_nnz, 2 * k)
        inv_chol[k, :k] = (l_row @ r_block) / -pivot
        inv_chol[k, k] = 1.0 / pivot
        nonzero = np.flatnonzero(gram_row)
        end = n_entries + nonzero.size
        if end > values.size:
            size = max(2 * values.size, end)
            cols, values = np.resize(cols, size), np.resize(values, size)
        cols[n_entries:end] = nonzero
        values[n_entries:end] = gram_row[nonzero]
        n_entries = end
        passive_buf[k] = j
        row_nnz[k] = nonzero.size
        k += 1
        passive = passive_buf[:k]
        passive_mask[j] = True

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        products = values[:n_entries] * np.repeat(x[passive], row_nnz[:k])
        w = c - np.bincount(cols[:n_entries], weights=products, minlength=n_cols)
        w[passive_mask] = -np.inf
        j = int(np.argmax(w))
        kkt_max = float(w[j])
        if kkt_max <= threshold:
            return x, NnlsInfo(iterations, residual_norm(), kkt_max)

        enter(j)
        while True:
            r_block = inv_chol[:k, :k]
            z = r_block.T @ (r_block @ c[passive])
            if np.all(z > 0.0):
                x[passive] = z
                break
            xp = x[passive]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(z <= 0.0, xp / (xp - z), np.inf)
            alpha = float(np.min(steps))
            xp = xp + alpha * (z - xp)
            x[passive] = np.maximum(xp, 0.0)
            kept = x[passive] > 0.0
            staying = passive[kept]
            x[passive[~kept]] = 0.0
            passive_mask[passive] = False
            k = n_entries = 0
            passive = passive_buf[:k]
            for col in staying.tolist():
                enter(col)
            if not k:
                break

    raise NnlsError(
        "NNLS iteration cap reached before KKT tolerance",
        iterations,
        residual_norm(),
    )


@dataclass(frozen=True)
class WidebandSpectrum:
    """Recovered non-negative wideband spectrum on the support bins.

    Conceptually a length-M vector X >= 0 (zero off support); stored sparsely
    as (support, components). Component units are squared per-sample count
    amplitude: a folded tone of count amplitude a solves to X = a^2
    regardless of the record it came from.

    Attributes:
        grid: The wideband grid (M = T * f_nyq bins, resolution 1/T).
        support: Wideband bin indices carrying values, as int64.
        components: X values on ``support`` (>= 0). Both arrays are held as
            :func:`frozen` holds them.
    """

    grid: WidebandGrid
    support: np.ndarray
    components: np.ndarray

    def __post_init__(self) -> None:
        support = frozen(self.support, np.int64)
        comps = frozen(self.components, float)
        if support.shape != comps.shape or support.ndim != 1:
            raise ValueError("support and components must be matching 1-D arrays")
        check_range(0, components=comps)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "components", comps)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.grid.frequency_hz(self.support)

    def dense(self) -> np.ndarray:
        """Materialize the length-M component vector (small grids only)."""
        x = np.zeros(self.grid.num_bins)
        x[self.support] = self.components
        return x

    def value_at_bin(self, m: int) -> float:
        """X at wideband bin m (0 off support)."""
        idx = np.searchsorted(self.support, m)
        if idx < self.support.size and self.support[idx] == m:
            return float(self.components[idx])
        return 0.0


@dataclass(frozen=True)
class ReconstructionDiagnostics:
    """Solver and conditioning record of one reconstruction.

    Attributes:
        residual_norm: ||Phi X - Y|| of the two-sided problem at the returned
            X (sqrt(2) times the residual of the one-sided problem solved).
        rows_used: Record rows in the one-sided problem solved (rows
            1 .. floor(N_i/2) that the support folds to, over all records).
        floor_estimates: Per-record floor subtracted (0 without subtraction).
        num_dc_coupled_columns: Two-sided wideband bins (a forward support
            bin and its conjugate) that fold onto a record's DC row in some
            record.
    """

    iterations: int
    residual_norm: float
    kkt_max: float
    rows_used: int
    floor_estimates: np.ndarray
    num_dc_coupled_columns: int


def reconstruct(
    spectra: Sequence[PowerSpectrum],
    matrices: Sequence[SamplingMatrix],
    *,
    floor_subtraction: Literal["median", "none"] = "median",
    tol: float = 1e-10,
) -> tuple[WidebandSpectrum, ReconstructionDiagnostics]:
    """Recover the sparse wideband spectrum from undersampled records.

    Each record's one-sided power spectrum is optionally floor-subtracted
    (median estimate — an additive flat noise floor would otherwise bias the
    non-negative solution) and scaled by D_i = 4 / (M N_i), so a tone of
    per-sample count amplitude a contributes the same X = a^2 in every
    record. The system solved is the one :func:`coherence` measures: record
    rows 1 .. floor(N_i/2) that the support folds to, with row N_i/2 of an
    even N_i weighted by sqrt(1/2), so the objective is exactly half the
    two-sided one at the mirrored X. It is solved by :func:`nnls_active_set`
    and its solution mirrored onto both bins of each conjugate pair.

    Args:
        spectra: One PowerSpectrum per record (one-sided).
        matrices: Matching sampling matrices (same order, same grid/support).
        floor_subtraction: "median" (default) or "none", the config's values.
        tol: NNLS KKT tolerance (relative).

    Returns:
        (spectrum, diagnostics); spectrum has X_m = X_(M-m) exactly.

    Raises:
        ValueError: On inconsistent grids, supports, record shapes or rates.
        NnlsError: If the solver hits its iteration cap (its residual_norm
            is that of the one-sided problem).
    """
    if len(spectra) != len(matrices) or not spectra:
        raise ValueError("need equally many spectra and matrices (>= 1)")
    if floor_subtraction not in ("median", "none"):
        raise ValueError(f"unknown floor_subtraction {floor_subtraction!r}")
    system, kept = _solved_system(matrices)
    grid, support = matrices[0].grid, matrices[0].support
    data: list[np.ndarray] = []
    floors = np.zeros(len(spectra))
    dc_coupled = np.zeros(support.size, dtype=bool)
    for i, (spec, mat, (rows, weights)) in enumerate(zip(spectra, matrices, kept)):
        if spec.num_samples != mat.num_record_bins:
            raise ValueError(
                f"record {i}: spectrum has N={spec.num_samples} but the matrix "
                f"expects N_i={mat.num_record_bins}"
            )
        if not math.isclose(spec.sample_rate_hz, mat.sample_rate_hz, rel_tol=1e-9):
            raise ValueError(
                f"record {i}: spectrum rate {spec.sample_rate_hz} != matrix rate "
                f"{mat.sample_rate_hz}"
            )
        y = np.asarray(spec.power, dtype=float)
        if floor_subtraction == "median":
            floors[i] = _median(spec.power[1:])
            y = y - floors[i]
        y = y * (4.0 / (grid.num_bins * mat.num_record_bins))
        data.append(y[rows] * weights)
        dc_coupled[mat.matrix.cols[mat.matrix.rows == 0]] = True

    x, info = nnls_active_set(system, np.concatenate(data), tol=tol)
    # support is sorted and <= M/2, so the mirrors M - m of the paired bins
    # follow it in ascending order.
    paired = (support > 0) & (2 * support < grid.num_bins)
    spectrum = WidebandSpectrum(
        grid=grid,
        support=np.concatenate([support, grid.num_bins - support[paired][::-1]]),
        components=np.concatenate([x, x[paired][::-1]]),
    )
    diagnostics = ReconstructionDiagnostics(
        iterations=info.iterations,
        residual_norm=math.sqrt(2.0) * info.residual_norm,
        kkt_max=info.kkt_max,
        rows_used=system.shape[0],
        floor_estimates=floors,
        num_dc_coupled_columns=int(np.sum(np.where(paired, 2, 1)[dc_coupled])),
    )
    return spectrum, diagnostics


def recovery_phase_diagram(
    sparsity_values: Sequence[int],
    record_counts: Sequence[int],
    trials: int,
    seed: int,
    *,
    grid_bins: int = 1024,
) -> np.ndarray:
    """Monte Carlo exact-recovery success rates over (sparsity, record count).

    Noiseless synthetic instances on a small grid (M = ``grid_bins`` <= 4096,
    T = 1 s, integer folds): each trial draws p distinct record lengths from
    ``PHASE_DIAGRAM_RECORD_BINS``, then s distinct tone bins from those in
    [1, M/2) that fold onto no DC or Nyquist row of any record (degenerate
    folds are not identifiable), with components from
    ``PHASE_DIAGRAM_AMPLITUDES``. It forms Y = A X exactly for the system A
    :func:`reconstruct` solves, and solves NNLS on every forward bin of the
    grid. Success = exact support recovery with component error
    <= 1e-6 * max(X).

    Returns:
        success[s_index, p_index] in [0, 1].

    Raises:
        ValueError: If a trial's records leave fewer than s admissible tone
            bins.
    """
    if grid_bins > 4096:
        raise ValueError("phase diagram is desk-scale: grid_bins <= 4096")
    check_range(1, integer=True, trials=trials)
    grid = WidebandGrid(duration_s=1.0, nyquist_rate_hz=float(grid_bins))
    m_total = grid.num_bins
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    lo_n, hi_n = PHASE_DIAGRAM_RECORD_BINS
    forward = np.arange(1, m_total // 2)

    success = np.zeros((len(sparsity_values), len(record_counts)))
    for si, s in enumerate(sparsity_values):
        for pi, p in enumerate(record_counts):
            wins = 0
            for _ in range(trials):
                n_is = rng.choice(np.arange(lo_n, hi_n), size=p, replace=False)
                folds = forward[:, None] % n_is
                admissible = forward[np.all((folds != 0) & (2 * folds != n_is), axis=1)]
                if s > admissible.size:
                    raise ValueError(
                        f"sparsity {s} exceeds the {admissible.size} tone bins that fold "
                        f"onto no DC or Nyquist row of records {sorted(n_is.tolist())}"
                    )
                x_true = np.zeros(m_total // 2 + 1)
                tones = rng.choice(admissible, size=s, replace=False)
                x_true[tones] = rng.uniform(*PHASE_DIAGRAM_AMPLITUDES, size=s)
                a_stacked, _ = _solved_system(
                    [build_sampling_matrix(float(n_i), int(n_i), grid) for n_i in n_is]
                )
                b = a_stacked.matvec(x_true)
                x_hat, _ = nnls_active_set(a_stacked, b)
                err = np.max(np.abs(x_hat - x_true))
                recovered = set(np.nonzero(x_hat > 1e-6 * x_true.max())[0])
                truth = set(np.nonzero(x_true)[0])
                if recovered == truth and err <= 1e-6 * x_true.max():
                    wins += 1
            success[si, pi] = wins / trials
    return success


@dataclass(frozen=True)
class RateDesignConfig:
    """Sampling periods base_period_s + delta for :func:`design_rates` (the
    config's ``rate_design`` section), with the deltas on the
    ``time_grid_s``-spaced grid in [0, max_extra_s] (hardware delays are
    quantized), which must hold at least ``num_rates`` levels."""

    num_rates: int
    base_period_s: float
    max_extra_s: float
    time_grid_s: float = 1e-7

    def __post_init__(self) -> None:
        check_range(2, integer=True, num_rates=self.num_rates)
        check_range(0, strict=True, base_period_s=self.base_period_s)
        check_range(0, strict=True, max_extra_s=self.max_extra_s)
        check_range(0, strict=True, time_grid_s=self.time_grid_s)
        # The level indices are drawn as int64, so their count must fit one.
        ratio = self.max_extra_s / self.time_grid_s
        check_range(0, high=np.iinfo(np.int64).max - 1, **{"max_extra_s / time_grid_s": ratio})
        if self.num_levels < self.num_rates:
            raise ValueError("time grid too coarse for the requested number of rates")

    @property
    def num_levels(self) -> int:
        """Delay levels on the time grid, 0 and max_extra_s included."""
        return int(math.floor(self.max_extra_s / self.time_grid_s + 1e-9)) + 1


def design_rates(design: RateDesignConfig, seed: int) -> np.ndarray:
    """Draw ``design.num_rates`` distinct sampling periods for a CS
    acquisition, with the delay levels drawn without replacement.

    Returns:
        Sample rates 1/t_s in Hz, sorted descending (shortest period first).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    chosen = rng.choice(design.num_levels, size=design.num_rates, replace=False)
    periods = design.base_period_s + np.sort(chosen) * design.time_grid_s
    return 1.0 / periods


def write_matrix_csv(matrix: SamplingMatrix, path: str | Path) -> Path:
    """Export a sampling matrix as coordinate-list CSV (row, wideband_bin, weight)."""
    path = Path(path)
    coo = matrix.matrix
    order = np.lexsort((coo.cols, coo.rows))
    header = (
        f"# sample_rate_hz={matrix.sample_rate_hz!r}",
        f"# num_record_bins={matrix.num_record_bins}",
        f"# grid_bins={matrix.grid.num_bins}",
        f"# grid_resolution_hz={matrix.grid.resolution_hz!r}",
        "row,wideband_bin,weight",
    )
    columns = (coo.rows[order], matrix.support[coo.cols[order]], coo.data[order])
    with path.open("wb") as fh:
        fh.writelines(csv_blocks(header, columns))
    return path
