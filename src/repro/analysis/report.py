"""Result containers and textual reports for accuracy evaluations.

These dataclasses carry the outcome of one estimation (or one
simulation-vs-estimation comparison) and know how to render themselves as
the plain-text rows used by the benchmark harnesses to regenerate the
paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import ed_deviation, is_sub_one_bit


@dataclass
class EstimateResult:
    """Outcome of one analytical estimation.

    Attributes
    ----------
    method:
        Name of the estimation method (``psd``, ``psd_tracked``, ``flat``,
        ``agnostic``).
    power:
        Estimated output noise power ``E[e^2]``.
    mean:
        Estimated output noise mean.
    variance:
        Estimated output noise variance.
    n_psd:
        Number of PSD bins used (``None`` for moment-only methods).
    elapsed_seconds:
        Wall-clock time of the estimation, when measured.
    """

    method: str
    power: float
    mean: float
    variance: float
    n_psd: int | None = None
    elapsed_seconds: float | None = None


@dataclass
class AccuracyReport:
    """Comparison of one estimate against the simulation reference.

    Attributes
    ----------
    system:
        Human-readable name of the system under evaluation.
    simulated_power:
        Ground-truth output error power from simulation.
    estimate:
        The analytical estimate being compared.
    """

    system: str
    simulated_power: float
    estimate: EstimateResult

    @property
    def ed(self) -> float:
        """MSE deviation ``Ed`` (Eq. 15), as a fraction."""
        return ed_deviation(self.simulated_power, self.estimate.power)

    @property
    def ed_percent(self) -> float:
        """``Ed`` in percent, the unit used in the paper's tables."""
        return 100.0 * self.ed

    @property
    def sub_one_bit(self) -> bool:
        """Whether the estimate meets the paper's sub-one-bit objective."""
        return is_sub_one_bit(self.ed)

    def describe(self) -> str:
        """One-line textual summary."""
        return (f"{self.system}: method={self.estimate.method} "
                f"sim={self.simulated_power:.4e} est={self.estimate.power:.4e} "
                f"Ed={self.ed_percent:+.2f}% "
                f"({'sub-one-bit' if self.sub_one_bit else 'OVER one bit'})")
