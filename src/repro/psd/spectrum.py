"""Discrete power spectral density of a noise signal.

Convention
----------
A :class:`DiscretePsd` over ``n`` bins describes a wide-sense-stationary
noise signal by

* ``ac`` — an array of ``n`` non-negative numbers, the power of the
  zero-mean (random) part of the signal in each frequency bin.  Bin ``k``
  corresponds to normalized frequency ``k / n`` on the full circle
  ``[0, 1)``, so the array covers both positive and negative frequencies
  and ``sum(ac) == variance``.
* ``mean`` — the signed deterministic mean of the signal.

The paper stores ``mu^2`` in the DC bin of its PSD (Eq. 10); here the mean
is kept *signed* and separate so that means can cancel at adders and
change sign through filters with negative DC gain — the squared value is
only formed when the total power is requested.  The
:attr:`DiscretePsd.values` property reconstructs the paper's convention
(DC bin = ``mu^2 + ac[0]``) for display and comparison purposes.

The total power is ``E[x^2] = mean**2 + sum(ac)``.

Leading axis
------------
A PSD may be *stacked*: ``ac`` of shape ``(K, n)`` and ``mean`` of shape
``(K,)``.  The rows are either the spectra of one signal under ``K``
word-length configurations of a batched evaluation, or the
contributions of ``K`` noise sources to one signal (the separable 2-D
field of :mod:`repro.systems.dwt.noise_model`; :meth:`DiscretePsd.joined`
appends one source stack to another).  The algebra is written once over
that leading axis, so the analytical engine runs a scalar evaluation as
the ``K = 1`` case of the batched one and :meth:`DiscretePsd.select`
hands back an unstacked row.
The public constructor validates its bins (finite, non-negative) and
clips them (it receives outside data such as Welch estimates); results
of the algebra are built without re-validating, since every operation
preserves non-negative bins.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats


class DiscretePsd:
    """Discrete PSD (plus signed mean) of a noise signal, optionally stacked.

    A PSD may carry a leading axis: ``K`` spectra of the same signal under
    ``K`` word-length configurations, as produced by the batched
    analytical walks, or the spectra of ``K`` noise sources.  Every
    operation below is written once and applies row by row along that
    axis, so row ``k`` of a result is bit-identical to the same operation
    on the unstacked row ``k``.

    Parameters
    ----------
    ac:
        Per-bin power of the zero-mean part of the signal (non-negative):
        ``(n_bins,)``, or ``(K, n_bins)`` for a stack of ``K`` spectra.
    mean:
        Signed mean of the signal: a float, or a ``(K,)`` array for a
        stack.
    """

    __slots__ = ("ac", "mean")

    def __init__(self, ac: np.ndarray, mean=0.0):
        ac = np.asarray(ac, dtype=float)
        if ac.ndim not in (1, 2) or 0 in ac.shape:
            raise ValueError(
                f"ac must be a non-empty (n_bins,) or (configs, n_bins) "
                f"array, got shape {ac.shape}")
        if ac.ndim == 1:
            if np.ndim(mean) != 0:
                raise ValueError(
                    f"an unstacked PSD needs a scalar mean, got shape "
                    f"{np.shape(mean)}")
            mean = float(mean)
        else:
            mean = np.asarray(mean, dtype=float)
            if mean.shape != ac.shape[:1]:
                raise ValueError(
                    f"mean must have shape ({ac.shape[0]},), got "
                    f"{mean.shape}")
        if not (np.all(np.isfinite(ac)) and np.all(np.isfinite(mean))):
            raise ValueError("PSD bins and mean must be finite")
        if np.any(ac < -1e-15):
            raise ValueError("PSD bins must be non-negative")
        self.ac = np.clip(ac, 0.0, None)
        self.mean = mean

    @classmethod
    def _trusted(cls, ac: np.ndarray, mean) -> "DiscretePsd":
        """Build a PSD without validating it.

        For producers whose bins are non-negative by construction: every
        operation of the algebra below (white spreading, squared-magnitude
        filtering, sums and joins of non-negative bins, folding and
        imaging) and the analytical engine's row gathers.
        """
        psd = cls.__new__(cls)
        psd.ac = ac
        psd.mean = float(mean) if ac.ndim == 1 else mean
        return psd

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n_bins: int, configs: int | None = None) -> "DiscretePsd":
        """The PSD of an identically-zero signal (``configs`` stacked
        copies when given)."""
        _check_bins(n_bins)
        if configs is not None and configs < 1:
            raise ValueError(f"a PSD stack needs at least one config, "
                             f"got {configs}")
        shape = (n_bins,) if configs is None else (configs, n_bins)
        return cls._trusted(np.zeros(shape), np.zeros(shape[:-1]))

    @classmethod
    def white(cls, stats: NoiseStats, n_bins: int) -> "DiscretePsd":
        """The PSD of a white noise with the given moments (Eq. 10).

        The variance is spread uniformly over all bins; the mean is kept
        signed and separate.  ``stats`` fields that are ``(K,)`` arrays
        give a stack with one white PSD per config.
        """
        return cls.from_moments(stats.mean, stats.variance, n_bins)

    @classmethod
    def from_moments(cls, mean, variance, n_bins: int) -> "DiscretePsd":
        """White PSD from raw moments (floats, or ``(K,)`` arrays)."""
        view = cls.white_view(mean, variance, n_bins)
        return cls._trusted(view.ac.copy(), view.mean)

    @classmethod
    def white_view(cls, mean, variance, n_bins: int) -> "DiscretePsd":
        """:meth:`from_moments` with the bins a read-only broadcast of
        the per-row spread instead of a filled array.

        For consumers that only read the bins (the analytical walks add
        or filter them into arrays of their own).
        """
        _check_bins(n_bins)
        spread = np.asarray(variance, dtype=float) / n_bins
        if (spread < -1e-15).any():
            raise ValueError("PSD bins must be non-negative")
        # A zero stride along the bins repeats each row's spread.
        ac = np.ndarray(spread.shape + (n_bins,), buffer=spread,
                        strides=spread.strides + (0,))
        ac.flags.writeable = False
        return cls._trusted(ac, np.array(mean, dtype=float))

    # ------------------------------------------------------------------
    # Shape and summaries
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        """Number of frequency bins."""
        return self.ac.shape[-1]

    @property
    def stacked(self) -> bool:
        """Whether the PSD carries a leading (config or source) axis."""
        return self.ac.ndim == 2

    @property
    def size(self) -> int:
        """Number of stacked rows (1 for an unstacked PSD)."""
        return self.ac.shape[0] if self.stacked else 1

    def select(self, config: int) -> "DiscretePsd":
        """Row ``config`` of a stack, as an unstacked PSD (a view)."""
        if not self.stacked:
            raise ValueError("select() needs a stacked PSD")
        return self._trusted(self.ac[config], self.mean[config])

    @property
    def variance(self):
        """Variance (power of the zero-mean part); ``(K,)`` for a stack."""
        variance = np.sum(self.ac, axis=-1)
        return variance if self.stacked else float(variance)

    @property
    def total_power(self):
        """Total power ``E[x^2] = mean^2 + variance``."""
        return self.mean ** 2 + self.variance

    @property
    def values(self) -> np.ndarray:
        """PSD bins in the paper's convention (DC bin includes ``mean^2``)."""
        values = self.ac.copy()
        values[..., 0] += self.mean ** 2
        return values

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "DiscretePsd") -> "DiscretePsd":
        """Sum of two *uncorrelated* noise signals (Eq. 14).

        Variances (per bin) add; means add (they are deterministic, so
        their combination is always exact).
        """
        if not isinstance(other, DiscretePsd):
            return NotImplemented
        if other.ac.shape != self.ac.shape:
            raise ValueError(f"cannot add PSDs of shapes {self.ac.shape} "
                             f"and {other.ac.shape}")
        return self._trusted(self.ac + other.ac, self.mean + other.mean)

    def joined(self, other: "DiscretePsd") -> "DiscretePsd":
        """The stack of this stack's rows followed by ``other``'s.

        Both must be stacks on the same bins; either may have no rows.
        """
        if not (self.stacked and other.stacked):
            raise ValueError("joined() needs two stacked PSDs")
        if other.n_bins != self.n_bins:
            raise ValueError(f"cannot join stacks on {self.n_bins} and "
                             f"{other.n_bins} bins")
        return self._trusted(np.concatenate([self.ac, other.ac]),
                             np.concatenate([self.mean, other.mean]))

    def scaled(self, gain: float) -> "DiscretePsd":
        """PSD after multiplication of the signal by a constant ``gain``."""
        if gain == 1.0:
            # x * 1.0 is exactly x (signed zeros included), so the
            # adders' unit signs skip three array passes.
            return self
        return self._trusted(self.ac * gain * gain, self.mean * gain)

    def __mul__(self, gain):
        if np.isscalar(gain):
            return self.scaled(float(gain))
        return NotImplemented

    __rmul__ = __mul__

    def filtered(self, frequency_response: np.ndarray) -> "DiscretePsd":
        """PSD after passing through an LTI system (Eq. 11).

        Parameters
        ----------
        frequency_response:
            Complex (or magnitude) frequency response of the system sampled
            on the same ``n_bins`` full-circle grid as this PSD: one
            ``(n_bins,)`` response shared by every row, or (for a stack) a
            ``(K, n_bins)`` array with one response per config.  The
            squared magnitude shapes the AC part; the real part of the DC
            response scales the mean.
        """
        response = np.asarray(frequency_response)
        if response.shape[-1] != self.n_bins:
            raise ValueError(
                f"frequency response has {response.shape[-1]} points, "
                f"expected {self.n_bins}")
        if response.ndim > 1 and response.shape[:-1] != self.ac.shape[:-1]:
            raise ValueError(
                f"a response stack of shape {response.shape} does not fit "
                f"PSDs of shape {self.ac.shape}")
        return self.weighted(np.abs(response) ** 2,
                             np.real(response[..., 0]))

    def weighted(self, magnitude_sq, dc_gain, out: "DiscretePsd | None" = None
                 ) -> "DiscretePsd":
        """:meth:`filtered` by a precomputed squared magnitude response
        and DC gain (one shared, or one per row of a stack).

        ``out``, a stack of this one's shape, receives the result in
        place (it must not overlap this PSD); it is returned.
        """
        if out is None:
            return self._trusted(self.ac * magnitude_sq, self.mean * dc_gain)
        np.multiply(self.ac, magnitude_sq, out=out.ac)
        np.multiply(self.mean, dc_gain, out=out.mean)
        return out

    # ------------------------------------------------------------------
    # Multirate transformations
    # ------------------------------------------------------------------
    def downsampled(self, factor: int = 2) -> "DiscretePsd":
        """PSD after down-sampling by ``factor`` (spectral folding).

        The per-sample power of a WSS signal is unchanged by decimation;
        the AC spectrum folds (aliases) onto ``n_bins / factor`` bins and
        the mean is preserved.
        """
        from repro.lti.multirate import downsample_psd
        return self._trusted(downsample_psd(self.ac, factor),
                             np.copy(self.mean))

    def upsampled(self, factor: int = 2) -> "DiscretePsd":
        """PSD after zero-insertion up-sampling by ``factor`` (imaging).

        Only one sample in ``factor`` is non-zero, so the per-sample power
        and the mean both shrink by ``factor``; the AC spectrum is imaged
        ``factor`` times.
        """
        from repro.lti.multirate import upsample_psd
        return self._trusted(upsample_psd(self.ac, factor),
                             self.mean / factor)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def allclose(self, other: "DiscretePsd", rtol: float = 1e-9,
                 atol: float = 1e-12) -> bool:
        """Whether two PSDs are numerically identical."""
        return (self.ac.shape == other.ac.shape
                and np.allclose(self.ac, other.ac, rtol=rtol, atol=atol)
                and np.allclose(self.mean, other.mean, rtol=rtol, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.stacked:
            return f"DiscretePsd(configs={self.size}, n_bins={self.n_bins})"
        return (f"DiscretePsd(n_bins={self.n_bins}, mean={self.mean:.3e}, "
                f"variance={self.variance:.3e})")


def _check_bins(n_bins: int) -> None:
    if n_bins < 1:
        raise ValueError(f"a PSD needs at least one bin, got {n_bins}")
