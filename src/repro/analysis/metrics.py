"""Accuracy metrics.

The paper compares estimators with the *MSE deviation* ``Ed`` (Eq. 15)::

    Ed = (E[err_sim^2] - E[err_est^2]) / E[err_sim^2]

and states that an estimate within one bit of the simulated value
corresponds to ``Ed`` in an open interval (one bit of word length is a
factor of 4 in noise power).  With this sign convention the band is
``(-300 %, +75 %)``: an estimate one bit *above* the simulation
(``est = 4 * sim``) gives ``Ed = -300 %`` and one bit *below*
(``est = sim / 4``) gives ``Ed = +75 %``.  The helpers below implement
that metric, the measured noise power and the one-bit-equivalence
check.
"""

from __future__ import annotations

import numpy as np


def noise_power(error: np.ndarray) -> float:
    """Mean-square value ``E[e^2]`` of an error record."""
    error = np.asarray(error, dtype=float)
    if error.size == 0:
        raise ValueError("cannot measure the power of an empty record")
    return float(np.mean(error ** 2))


def ed_deviation(simulated_power: float, estimated_power: float) -> float:
    """MSE deviation ``Ed`` between simulation and estimation (Eq. 15).

    Expressed as a fraction (0.05 = 5 %).  Positive values mean the
    estimator under-estimates the simulated error power.
    """
    if simulated_power <= 0:
        raise ValueError("simulated error power must be positive")
    return (simulated_power - estimated_power) / simulated_power


def is_sub_one_bit(ed: float) -> bool:
    """Whether an ``Ed`` value corresponds to a sub-one-bit estimate.

    The band follows from the factor-of-4 power ratio between two
    successive word lengths and from ``Ed = (sim - est) / sim``: the
    estimate is within one bit of the simulation iff
    ``sim / 4 < est < 4 * sim``, i.e. ``Ed`` in the open interval
    ``(-300 %, +75 %)`` — ``est = 4 * sim`` maps to ``Ed = -3.0`` and
    ``est = sim / 4`` to ``Ed = +0.75``, both excluded.
    """
    return -3.0 < ed < 0.75
