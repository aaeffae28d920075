"""Rational transfer functions of discrete-time LTI systems.

The analytical accuracy-evaluation methods all need, for each block or for
each source-to-output path, either

* the impulse response (flat method, Eqs. 5-6: ``K_i = sum h_i(k)^2`` and
  ``L_ij = (sum h_i)(sum h_j)``), or
* the magnitude response sampled on ``N_PSD`` frequency bins (proposed
  method, Eq. 11: ``S_out = S_in * |H|^2``).

:class:`TransferFunction` provides both, together with composition
(cascade, parallel addition, feedback) so that path transfer functions can
be assembled from block transfer functions.
"""

from __future__ import annotations

import numpy as np

from repro.simkernel.iir import iir_df1_double


class TransferFunction:
    """A rational discrete-time transfer function ``B(z) / A(z)``.

    Coefficients follow the usual DSP convention::

        H(z) = (b[0] + b[1] z^-1 + ... + b[M] z^-M)
               / (1 + a[1] z^-1 + ... + a[N] z^-N)

    Parameters
    ----------
    b:
        Numerator coefficients.
    a:
        Denominator coefficients (defaults to ``[1.0]``, i.e. an FIR
        system).  ``a[0]`` must be non-zero; coefficients are normalized so
        that ``a[0] == 1``.
    """

    def __init__(self, b, a=None):
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a is None:
            a = np.array([1.0])
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if b.ndim != 1 or a.ndim != 1:
            raise ValueError("b and a must be one-dimensional")
        if len(a) == 0 or a[0] == 0.0:
            raise ValueError("denominator must have a non-zero leading coefficient")
        self.b = b / a[0]
        self.a = a / a[0]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls) -> "TransferFunction":
        """The unit (pass-through) system ``H(z) = 1``."""
        return cls([1.0])

    @classmethod
    def gain(cls, value: float) -> "TransferFunction":
        """A constant gain ``H(z) = value``."""
        return cls([float(value)])

    @classmethod
    def delay(cls, samples: int) -> "TransferFunction":
        """A pure delay ``H(z) = z^-samples``."""
        if samples < 0:
            raise ValueError(f"delay must be non-negative, got {samples}")
        b = np.zeros(samples + 1)
        b[samples] = 1.0
        return cls(b)

    @classmethod
    def fir(cls, taps) -> "TransferFunction":
        """An FIR system with the given impulse response."""
        return cls(taps)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def is_fir(self) -> bool:
        """Whether the system has no feedback (denominator is trivial)."""
        return len(self.a) == 1 or np.allclose(self.a[1:], 0.0)

    @property
    def order(self) -> int:
        """Order of the system (max of numerator / denominator degree)."""
        return max(len(self.b), len(self.a)) - 1

    def poles(self) -> np.ndarray:
        """Poles of the transfer function."""
        if len(self.a) == 1:
            return np.array([], dtype=complex)
        return np.roots(self.a)

    def zeros(self) -> np.ndarray:
        """Zeros of the transfer function."""
        if len(self.b) == 1:
            return np.array([], dtype=complex)
        return np.roots(self.b)

    def is_stable(self, margin: float = 1e-9) -> bool:
        """Whether all poles lie strictly inside the unit circle."""
        poles = self.poles()
        if len(poles) == 0:
            return True
        return bool(np.all(np.abs(poles) < 1.0 - margin))

    def dc_gain(self) -> float:
        """Gain at zero frequency."""
        return float(np.sum(self.b) / np.sum(self.a))

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def frequency_response(self, n_points: int, whole: bool = True) -> np.ndarray:
        """Complex frequency response sampled on ``n_points`` bins.

        Parameters
        ----------
        n_points:
            Number of frequency samples.
        whole:
            If true (default), sample the full circle ``[0, 2*pi)`` — this
            matches the discrete-PSD convention where bin ``k`` corresponds
            to normalized frequency ``k / n_points``.  If false, sample
            ``[0, pi)`` only.
        """
        if n_points < 1:
            raise ValueError(f"n_points must be positive, got {n_points}")
        span = 2.0 * np.pi if whole else np.pi
        omega = span * np.arange(n_points) / n_points
        z = np.exp(1j * omega)
        zinv = 1.0 / z
        numerator = np.polyval(self.b[::-1], zinv)
        denominator = np.polyval(self.a[::-1], zinv)
        return numerator / denominator

    def magnitude_response(self, n_points: int, whole: bool = True) -> np.ndarray:
        """Squared-magnitude response ``|H(F)|^2`` on ``n_points`` bins."""
        response = self.frequency_response(n_points, whole=whole)
        return np.abs(response) ** 2

    def impulse_response(self, n_samples: int | None = None,
                         tol: float = 1e-12) -> np.ndarray:
        """Impulse response truncated to ``n_samples`` samples.

        For FIR systems the exact response is returned (padded or truncated
        to ``n_samples`` when requested).  For IIR systems the response is
        computed recursively; if ``n_samples`` is ``None`` the recursion is
        run until the tail contributes less than ``tol`` of the accumulated
        energy (with a hard cap to protect against unstable systems).
        """
        if self.is_fir:
            h = self.b.copy()
            if n_samples is None:
                return h
            if n_samples <= len(h):
                return h[:n_samples]
            return np.concatenate([h, np.zeros(n_samples - len(h))])

        if n_samples is not None:
            return self._iir_impulse(n_samples)

        # Adaptive length: keep doubling until the energy of the last
        # quarter is negligible compared to the total energy.
        length = max(256, 8 * self.order)
        hard_cap = 1 << 20
        while True:
            h = self._iir_impulse(length)
            total = np.dot(h, h)
            tail = np.dot(h[-length // 4:], h[-length // 4:])
            if total == 0.0 or tail <= tol * total or length >= hard_cap:
                return h
            length *= 2

    def _iir_impulse(self, n_samples: int) -> np.ndarray:
        impulse = np.zeros(n_samples)
        if n_samples == 0:
            return impulse
        impulse[0] = 1.0
        return self.filter(impulse)

    def filter(self, x: np.ndarray) -> np.ndarray:
        """Filter the signal ``x`` in double precision (direct form I).

        The last axis is time; leading axes (batched trials) are filtered
        independently, each row bitwise equal to its single-stream run.
        This is the bit-true kernel's recursion without rounding
        (:func:`repro.simkernel.iir.iir_df1_double`); an FIR system is
        ``np.convolve`` truncated to the input length.
        """
        a = self.a[:1] if self.is_fir else self.a
        return iir_df1_double(x, self.b, a)

    # ------------------------------------------------------------------
    # Derived scalar quantities used by the analytical methods
    # ------------------------------------------------------------------
    def energy(self, n_samples: int | None = None) -> float:
        """Energy of the impulse response ``sum_k h(k)^2`` (Eq. 5)."""
        h = self.impulse_response(n_samples)
        return float(np.dot(h, h))

    def coefficient_sum(self, n_samples: int | None = None) -> float:
        """Sum of the impulse response ``sum_k h(k)``, equal to the DC gain."""
        if self.is_fir:
            return float(np.sum(self.b))
        return self.dc_gain()

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def cascade(self, other: "TransferFunction") -> "TransferFunction":
        """Series connection ``self * other``."""
        b = np.convolve(self.b, other.b)
        a = np.convolve(self.a, other.a)
        return TransferFunction(b, a)

    def parallel(self, other: "TransferFunction") -> "TransferFunction":
        """Parallel connection ``self + other``."""
        a = np.convolve(self.a, other.a)
        b1 = np.convolve(self.b, other.a)
        b2 = np.convolve(other.b, self.a)
        length = max(len(b1), len(b2))
        b = np.zeros(length)
        b[:len(b1)] += b1
        b[:len(b2)] += b2
        return TransferFunction(b, a)

    def feedback(self, other: "TransferFunction" = None) -> "TransferFunction":
        """Negative feedback loop ``self / (1 + self * other)``.

        ``other`` defaults to the identity (unity feedback).
        """
        if other is None:
            other = TransferFunction.identity()
        open_loop_b = np.convolve(self.b, other.b)
        denominator = np.convolve(self.a, other.a)
        length = max(len(denominator), len(open_loop_b))
        a = np.zeros(length)
        a[:len(denominator)] += denominator
        a[:len(open_loop_b)] += open_loop_b
        b = np.convolve(self.b, other.a)
        return TransferFunction(b, a)

    def scaled(self, gain: float) -> "TransferFunction":
        """The system multiplied by a constant gain."""
        return TransferFunction(self.b * gain, self.a)

    def __mul__(self, other):
        if isinstance(other, TransferFunction):
            return self.cascade(other)
        if np.isscalar(other):
            return self.scaled(float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, TransferFunction):
            return self.parallel(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TransferFunction(order={self.order}, "
                f"{'FIR' if self.is_fir else 'IIR'})")
