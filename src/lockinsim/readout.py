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


def sample_counts(
    model: ReadoutModel, p: float | np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw photon counts for transition probabilities ``p``.

    The three stochastic stages consume the generator in a fixed order
    (depolarization uniforms, Bernoulli uniforms, Poisson), one vectorized
    call each, so identical (model, p, rng state) reproduce identical counts
    regardless of array size.

    Args:
        model: Readout parameters.
        p: Transition probabilities in [0, 1] (any shape).
        rng: numpy Generator; no global state is touched.

    Returns:
        Non-negative integer counts shaped like ``p``.
    """
    p_arr = np.asarray(p, dtype=float)
    if p_arr.size and (p_arr.min() < 0.0 or p_arr.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")

    if model.depolarization_per_readout > 0.0:
        survival = depolarization_survival(model)
        depolarized = rng.random(p_arr.shape) >= survival
        p_used = np.where(depolarized, 0.5, p_arr)
    else:
        p_used = p_arr
    b = rng.random(p_arr.shape) < p_used
    mean = model.mean_gain_photons * (1.0 - model.contrast * b)
    return rng.poisson(mean)
