"""Quantum lock-in sampling simulator and analysis stack.

The package simulates a spin-qubit lock-in amplifier end to end:

* :mod:`lockinsim.signal` — deterministic and stochastic a.c. signal models
  (tone sums with optional amplitude modulation and Ornstein-Uhlenbeck
  frequency noise).
* :mod:`lockinsim.lockin` — CPMG sequence, accumulated quantum
  phase (closed form and quadrature oracle), transition probability, and the
  Bessel-harmonic response of the nonlinear phase-to-probability map.
* :mod:`lockinsim.readout` — stochastic photon-count readout with adjustable
  QND gain, optical contrast, and memory depolarization.
* :mod:`lockinsim.sampler` — drives the lock-in + readout chain at a fixed
  sampling period to produce sub-Nyquist photon-count time traces.
* :mod:`lockinsim.spectral` — unnormalized-DFT power spectra, SNR measurement
  and prediction, Lorentzian fitting with parameter covariance, and
  frequency-uncertainty scaling studies.
* :mod:`lockinsim.csrecon` — compressive-sampling reconstruction of a sparse
  wideband spectrum from several undersampled records via interpolated
  sampling matrices and non-negative least squares.
* :mod:`lockinsim.cli` — config-driven command line front end emitting
  reproducible CSV/JSON result files.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
