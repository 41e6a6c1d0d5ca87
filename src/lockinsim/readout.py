"""Stochastic photon-count readout of the sensing qubit via a memory qubit.

Each sample stores the sensing result in a long-lived memory and reads it out
``qnd_repetitions`` (n) times, collecting on average C(n) = n * gain_slope
photons with optical contrast epsilon between the two memory states:

    b ~ Bernoulli(p),   y ~ Poisson(C (1 - epsilon b)).

Each of the n readouts can depolarize the memory with probability Gamma, so
the stored state survives with probability e^(-Gamma n); a lost state is
modeled as fully mixed (Bernoulli parameter 1/2), which attenuates the signal
amplitude by e^(-Gamma n) (power by e^(-2 Gamma n)) while leaving the p = 1/2
noise floor unchanged to first order.

At the p = 1/2 operating point the total count variance is

    sigma_y^2 = (1/4) C^2 epsilon^2 + C (1 - epsilon/2)

(projection noise + shot noise); the two terms are equal at the threshold
gain C_thresh = 4/epsilon^2 - 2/epsilon.

:func:`sample_counts` folds depolarization into the Bernoulli parameter and
takes two uniforms per sample: all the Bernoulli uniforms first, then all
the count uniforms. Since the mean takes only two values, each count is the
inverse transform of one uniform through one of two Poisson CDF tables,
read through a guide table (Chen & Asau 1974). A table is exact to about
1e-14 and is cut 10 sqrt(mu) + 10 from its mean mu, where less than 1e-20 of
the Poisson mass lies. The tables grow as sqrt(C), so C(n) is capped at 2^32
photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import check_range

__all__ = [
    "ReadoutModel",
    "sample_counts",
    "expected_counts",
    "noise_variance",
    "depolarization_survival",
    "threshold_gain",
]

#: Largest mean count C(n) a readout model accepts (photons per sample).
_MAX_MEAN_GAIN = 2**32
#: Guide buckets per entry of a count table (rounded up to a power of two),
#: and their cap, which holds each state's guide to 512 kB at any allowed gain.
_GUIDE_BUCKETS_PER_COUNT = 8
_MAX_GUIDE_BUCKETS = 2**16


@dataclass(frozen=True)
class ReadoutModel:
    """Parameters of the repetitive QND photon-count readout.

    Attributes:
        qnd_repetitions: Number of readout repetitions n >= 1.
        contrast: Optical contrast epsilon in (0, 1).
        gain_slope_photons: Mean photons collected per repetition (default
            0.105, a demonstrated spin-photon interface value).
        depolarization_per_readout: Per-readout memory depolarization
            probability Gamma >= 0. The Gamma*n << 1 regime is the intended
            operating range but is not enforced.
        readout_unit_time_s: Wall-clock time per repetition (default 2.32 us).

    The mean count C(n) = n * gain_slope may not exceed 2^32 photons.
    """

    qnd_repetitions: int
    contrast: float
    gain_slope_photons: float = 0.105
    depolarization_per_readout: float = 0.0
    readout_unit_time_s: float = 2.32e-6

    def __post_init__(self) -> None:
        check_range(1, integer=True, qnd_repetitions=self.qnd_repetitions)
        check_range(0, high=1, strict=True, contrast=self.contrast)
        check_range(0, strict=True, gain_slope_photons=self.gain_slope_photons)
        check_range(0, depolarization_per_readout=self.depolarization_per_readout)
        check_range(0, strict=True, readout_unit_time_s=self.readout_unit_time_s)
        # Bounds the count tables of sample_counts, which grow as sqrt(C).
        check_range(
            0,
            high=_MAX_MEAN_GAIN,
            **{"qnd_repetitions * gain_slope_photons": self.mean_gain_photons},
        )

    @property
    def mean_gain_photons(self) -> float:
        """Mean photon number C(n) = n * gain_slope at full contrast."""
        return self.qnd_repetitions * self.gain_slope_photons

    @property
    def readout_time_s(self) -> float:
        """Total readout duration t_r = n * readout_unit_time_s (s)."""
        return self.qnd_repetitions * self.readout_unit_time_s


def depolarization_survival(model: ReadoutModel) -> float:
    """Probability e^(-Gamma n) that the memory survives all n readouts.

    The stored signal amplitude is attenuated by this factor (signal power by
    its square).
    """
    return math.exp(-model.depolarization_per_readout * model.qnd_repetitions)


def threshold_gain(contrast: float) -> float:
    """Gain C_thresh = 4/eps^2 - 2/eps where projection noise equals shot noise."""
    check_range(0, high=1, strict=True, contrast=contrast)
    return 4.0 / contrast**2 - 2.0 / contrast


def noise_variance(model: ReadoutModel) -> float:
    """Count variance sigma_y^2 = (1/4) C^2 eps^2 + C (1 - eps/2) at p = 1/2."""
    c = model.mean_gain_photons
    eps = model.contrast
    return 0.25 * c * c * eps * eps + c * (1.0 - eps / 2.0)


def _effective_probability(model: ReadoutModel, p: np.ndarray) -> np.ndarray:
    survival = depolarization_survival(model)
    return survival * p + (1.0 - survival) * 0.5


def expected_counts(model: ReadoutModel, p: float | np.ndarray) -> np.ndarray:
    """Mean photon count C (1 - eps * p_eff) including depolarization.

    p_eff = e^(-Gamma n) p + (1 - e^(-Gamma n))/2.
    """
    p_arr = np.asarray(p, dtype=float)
    return model.mean_gain_photons * (
        1.0 - model.contrast * _effective_probability(model, p_arr)
    )


def _count_cdf(mean: float) -> tuple[int, np.ndarray]:
    """The first count k0 and the Poisson(mean) CDF at k0, k0 + 1, ...

    The table spans mean +- (10 sqrt(mean) + 10). Its log pmf is summed
    outward from the mode by log p(k) - log p(k-1) = log(mean / k), so no
    term under- or overflows at any mean, and the CDF is divided by its
    last entry, which makes that entry exactly 1. A mean below 1e-20 puts
    less than 1e-20 of its mass above 0, so its table is the one entry 1
    at k0 = 0, as the cut above gives it; mean / k, which may underflow to
    0 there, is not taken.
    """
    if mean < 1e-20:
        return 0, np.ones(1)
    half_width = 10.0 * math.sqrt(mean) + 10.0
    k0 = max(0, math.floor(mean - half_width))
    mode = math.floor(mean)
    steps = np.log(mean / np.arange(k0 + 1, math.ceil(mean + half_width) + 1))
    below = -np.cumsum(steps[: mode - k0][::-1])[::-1]
    above = np.cumsum(steps[mode - k0 :])
    cdf = np.cumsum(np.exp(np.concatenate((below, [0.0], above))))
    return k0, cdf / cdf[-1]


def _count_guide(k0: int, cdf: np.ndarray, buckets: int) -> np.ndarray:
    """The count for each of ``buckets`` equal slices of [0, 1), or -1.

    Slice j holds the uniforms u in [j/buckets, (j+1)/buckets); the count
    min{k : u < cdf[k - k0]} is the same for all of them unless a CDF step
    falls inside the slice, and then the entry is -1. ``buckets`` is a power
    of two, so u * buckets and cdf * buckets are exact, and cdf[i] <= j /
    buckets exactly when ceil(cdf[i] * buckets) <= j.
    """
    first_edge = np.ceil(cdf * buckets).astype(np.intp)
    edges = np.cumsum(np.bincount(first_edge, minlength=buckets + 1))
    return np.where(edges[:-1] == edges[1:], edges[:-1] + k0, -1)


def sample_counts(
    model: ReadoutModel, p: float | np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw photon counts for transition probabilities ``p``.

    Depolarization is folded into the state's law: b ~ Bernoulli(p_eff), with
    p_eff from :func:`expected_counts`. The generator gives one array of
    Bernoulli uniforms, then one array of count uniforms u, and nothing
    more, so identical (model, p, rng state) reproduce identical counts.
    The count is the inverse transform y = min{k : u < F_b(k)} of the
    Poisson(C (1 - eps b)) CDF F_b, found in a guide table of at most 2^16
    buckets; a bucket that a CDF step crosses falls back to a binary search.
    F_b is exact to about 1e-14 and is cut beyond 10 sqrt(mu) + 10 of its
    mean mu, where the Poisson mass is below 1e-20.

    Args:
        model: Readout parameters.
        p: Transition probabilities in [0, 1] (any shape).
        rng: numpy Generator; no global state is touched.

    Returns:
        Non-negative integer counts shaped like ``p``.
    """
    p_arr = np.asarray(p, dtype=float)
    check_range(0, high=1, probabilities=p_arr)

    state = np.ravel(rng.random(p_arr.shape) < _effective_probability(model, p_arr))
    u = rng.random(p_arr.size)
    gain = model.mean_gain_photons
    tables = [_count_cdf(gain), _count_cdf(gain * (1.0 - model.contrast))]
    size = _GUIDE_BUCKETS_PER_COUNT * max(cdf.size for _, cdf in tables)
    buckets = min(_MAX_GUIDE_BUCKETS, 1 << size.bit_length())
    guide = np.concatenate([_count_guide(k0, cdf, buckets) for k0, cdf in tables])
    counts = guide[(u * buckets).astype(np.intp) + buckets * state]
    crossed = np.flatnonzero(counts < 0)
    for b, (k0, cdf) in enumerate(tables):
        at = crossed[state[crossed] == b]
        counts[at] = k0 + np.searchsorted(cdf, u[at], side="right")
    return counts.reshape(p_arr.shape)
