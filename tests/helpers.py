"""Shared oracles and fixture builders for the test suite.

The oracles here are deliberately independent of the library internals:
the DFT oracle is a direct O(N^2) sum, slopes are plain least squares on
log-log points, the CSV oracle formats every cell with ``str``, and
sequence/model builders only use public constructors.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import yaml

from lockinsim._io import CSV_BLOCK_ROWS
from lockinsim.lockin import CpmgSequence
from lockinsim.readout import ReadoutModel

REPO_ROOT = Path(__file__).resolve().parent.parent


def brute_force_power(values: np.ndarray) -> np.ndarray:
    """One-sided unnormalized power spectrum via a direct O(N^2) DFT sum."""
    y = np.asarray(values, dtype=float)
    n = y.size
    k = np.arange(n // 2 + 1)
    j = np.arange(n)
    basis = np.exp(-2j * math.pi * np.outer(k, j) / n)
    return np.abs(basis @ y) ** 2


def two_sided_total(power_one_sided: np.ndarray, num_samples: int) -> float:
    """Total two-sided spectral power implied by a one-sided spectrum."""
    total = float(power_one_sided[0])
    if num_samples % 2 == 0:
        total += float(power_one_sided[-1])
        total += 2.0 * float(np.sum(power_one_sided[1:-1]))
    else:
        total += 2.0 * float(np.sum(power_one_sided[1:]))
    return total


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)), 1)[0])


def resonant_sequence(frequency_hz: float, pulse_count: int = 32, harmonic: int = 1) -> CpmgSequence:
    """CPMG sequence tuned exactly on resonance with ``frequency_hz``."""
    return CpmgSequence.for_frequency(frequency_hz, pulse_count, harmonic=harmonic)


def standard_model(qnd_repetitions: int = 260, contrast: float = 0.35, **kwargs) -> ReadoutModel:
    """Readout model at the reference operating point (C = 27.3 photons)."""
    return ReadoutModel(qnd_repetitions=qnd_repetitions, contrast=contrast, **kwargs)


def omega_for_phi_max(phi_max: float, sensing_time_s: float, harmonic: int = 1) -> float:
    """Signal amplitude (rad/s) that yields ``phi_max`` on resonance."""
    return phi_max * harmonic * math.pi / (2.0 * sensing_time_s)


def two_sided_sampling_matrix(sample_rate_hz: float, num_record_bins: int, grid, support) -> sp.csc_matrix:
    """Two-sided folding matrix: every record row 0 .. N_i - 1, and one column
    per bin of ``support`` (any bins of the wideband ``grid``, in [0, M)).
    Bin m stands for the signed frequency s = m, or m - M above M/2; its
    images k (|s - k T/T_i| < 1) carry hat weight (1 - |s - k T/T_i|) * N_i / M
    at row k mod N_i. Test oracle only: the library builds the one-sided
    matrix directly."""
    support = np.asarray(support, dtype=np.int64)
    m_total = grid.num_bins
    n_i = int(num_record_bins)
    ratio = grid.duration_s / (n_i / sample_rate_hz)
    signed = np.where(support <= m_total // 2, support, support - m_total).astype(float)
    k_lo = np.ceil((signed - 1.0) / ratio).astype(np.int64)
    rows, cols, weights = [], [], []
    for offset in range(int(math.floor(2.0 / ratio)) + 2):
        k = k_lo + offset
        w = 1.0 - np.abs(signed - k * ratio)
        valid = w > 1e-12
        rows.append(k[valid] % n_i)
        cols.append(np.nonzero(valid)[0])
        weights.append(w[valid])
    return sp.csc_matrix(
        (np.concatenate(weights) * (n_i / m_total), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_i, support.size),
    )


def as_csc(a_matrix) -> sp.csc_matrix:
    """A library :class:`~lockinsim.csrecon.CooMatrix` or a dense array as a
    scipy CSC matrix."""
    if isinstance(a_matrix, np.ndarray):
        return sp.csc_matrix(a_matrix, dtype=float)
    return sp.csc_matrix((a_matrix.data, (a_matrix.rows, a_matrix.cols)), shape=a_matrix.shape)


def solved_rows(matrices) -> sp.csc_matrix:
    """The stacked system the reconstruction solves, through scipy.sparse:
    of each sampling matrix, the rows 1 .. N_i/2 that hold an entry, with
    row N_i/2 of an even N_i weighted by sqrt(1/2). Test oracle only."""
    blocks = []
    for m in matrices:
        a = as_csc(m.matrix).tocsr()
        weight = np.ones(a.shape[0])
        if m.num_record_bins % 2 == 0:
            weight[-1] = math.sqrt(0.5)
        touched = np.flatnonzero(np.diff(a.indptr))
        blocks.append((sp.diags(weight) @ a)[touched[touched >= 1]])
    return sp.vstack(blocks, format="csc")


def scipy_coherence(stacked: sp.csc_matrix) -> float:
    """Mutual coherence mu of a stacked matrix through scipy.sparse: columns
    scaled to unit norm, then the largest off-diagonal entry of the Gram
    product, formed 4096 columns at a time. Test oracle only."""
    norms_sq = np.asarray(stacked.multiply(stacked).sum(axis=0)).ravel()
    nonzero = norms_sq > 0.0
    normalized = (stacked[:, nonzero] @ sp.diags(1.0 / np.sqrt(norms_sq[nonzero]))).tocsc()
    gram_left = normalized.T.tocsr()
    mu = 0.0
    for lo in range(0, normalized.shape[1], 4096):
        block = (gram_left @ normalized[:, lo : lo + 4096]).tocoo()
        off_diag = block.row != (block.col + lo)
        if np.any(off_diag):
            mu = max(mu, float(np.abs(block.data[off_diag]).max()))
    return mu


def scipy_gram_nnls(a_matrix, b, tol: float = 1e-10) -> tuple[np.ndarray, int, float]:
    """Lawson-Hanson NNLS with scipy.sparse mat-vecs: the gradient is
    A^T (b - A x) from the residual of every iteration, the Gram column of
    an entering column is A^T a_j, and the passive Gram block is rebuilt as
    A_P^T A_P and refactored when columns leave. The passive subproblem
    keeps R = L^-1 of the Cholesky factor L of G_PP, as the library does,
    and borders it the same way when a column enters; the library regrows R
    by that bordering when columns leave instead, so the two agree bit for
    bit only on solves that drop no column. Test oracle only.

    Returns:
        (x, iterations, residual norm).
    """
    a_csc = as_csc(a_matrix)
    at = a_csc.T.tocsr()
    n_rows, n_cols = a_csc.shape
    c = at @ b
    x = np.zeros(n_cols)
    threshold = tol * float(np.max(np.abs(c)))
    passive: list[int] = []
    inv_chol = np.zeros((n_cols, n_cols))
    resid = np.array(b, dtype=float)
    for iterations in range(1, max(3 * n_cols, 30) + 1):
        w = at @ resid
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= threshold:
            return x, iterations, float(np.linalg.norm(resid))
        column = np.zeros(n_rows)
        entries = slice(a_csc.indptr[j], a_csc.indptr[j + 1])
        column[a_csc.indices[entries]] = a_csc.data[entries]
        gram_column = at @ column
        k = len(passive)
        r_block = inv_chol[:k, :k]
        l_row = r_block @ gram_column[passive]
        pivot = math.sqrt(gram_column[j] - float(l_row @ l_row))
        inv_chol[k, :k] = (l_row @ r_block) / -pivot
        inv_chol[k, k] = 1.0 / pivot
        passive.append(j)
        while passive:
            r_block = inv_chol[: len(passive), : len(passive)]
            z = r_block.T @ (r_block @ c[passive])
            if np.all(z > 0.0):
                x[:] = 0.0
                x[passive] = z
                break
            xp = x[passive]
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = float(np.min(np.where(z <= 0.0, xp / (xp - z), np.inf)))
            xp = np.maximum(xp + alpha * (z - xp), 0.0)
            x[:] = 0.0
            x[passive] = xp
            passive = [idx for idx, val in zip(passive, xp) if val > 0.0]
            if passive:
                a_passive = a_csc[:, passive]
                factor = np.linalg.cholesky((a_passive.T @ a_passive).toarray())
                inv_chol[: len(passive), : len(passive)] = np.tril(np.linalg.inv(factor))
        resid = b - a_csc @ x
    raise AssertionError("scipy Gram NNLS did not converge")


def drawn_nodes(path) -> np.ndarray:
    """Grid index of every node an FM path holds, from its run layout."""
    sizes = np.diff(path.run_offsets, append=path.psi_rad.size)
    return np.repeat(path.run_starts - path.run_offsets, sizes) + np.arange(path.psi_rad.size)


def short_wideband_config(tmp_path: Path) -> Path:
    """The shipped reconstruction config cut from 2 s to 0.2 s."""
    cfg = yaml.safe_load((REPO_ROOT / "configs" / "wideband_recovery.yaml").read_text())
    cfg["reconstruction"]["duration_s"] = 0.2
    path = tmp_path / "wideband.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def str_csv_blocks(header: Sequence[str], columns: Sequence[Any]) -> Iterator[str]:
    """The CSV text of :func:`lockinsim._io.csv_blocks`, every cell formatted
    by ``str`` of the column's Python scalars (``tolist``), in the same
    blocks. Test oracle only: encoded, the blocks must equal the library's."""
    yield "".join(f"{line}\n" for line in header)
    columns = [np.asarray(column) for column in columns]
    rows = min((column.shape[0] for column in columns), default=0)
    for start in range(0, rows, CSV_BLOCK_ROWS):
        cells = [map(str, c[start : start + CSV_BLOCK_ROWS].tolist()) for c in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def str_csv_bytes(header: Sequence[str], columns: Sequence[Any]) -> bytes:
    """The whole CSV file of :func:`str_csv_blocks` as UTF-8 bytes."""
    return "".join(str_csv_blocks(header, columns)).encode()
