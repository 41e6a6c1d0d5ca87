"""Shared oracles and fixture builders for the test suite.

The oracles here are deliberately independent of the library internals:
the DFT oracle is a direct O(N^2) sum, slopes are plain least squares on
log-log points, and sequence/model builders only use public constructors.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import yaml

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


def short_wideband_config(tmp_path: Path) -> Path:
    """The shipped reconstruction config cut from 2 s to 0.2 s."""
    cfg = yaml.safe_load((REPO_ROOT / "configs" / "wideband_recovery.yaml").read_text())
    cfg["reconstruction"]["duration_s"] = 0.2
    path = tmp_path / "wideband.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path
