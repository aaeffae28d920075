"""Unit tests for :mod:`repro.fixedpoint.quantizer`."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantizer import Quantizer, RoundingMode, apply_rounding

_INF, _NAN = np.inf, np.nan

# Step mantissas that stress the rounding rules: ties on both sides, the
# largest double below 0.5 (its ``|m| + 0.5`` rounds up to 1.0) and the
# neighbours of 2**52, where ``|m| + 0.5`` is no longer exact.
_MANTISSAS = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 7.5, -7.5,
                       0.49999999999999994, -0.49999999999999994,
                       2.0 ** 52 + 1, -(2.0 ** 52 + 1),
                       2.0 ** 52 - 1, -(2.0 ** 52 - 1), 0.25, -0.25])


def _bits(values) -> np.ndarray:
    """Raw bits of a float or complex array (-0.0 != +0.0, NaNs by payload)."""
    values = np.ascontiguousarray(values)
    return values.view(np.int64)


def _lane_grid(step: float) -> np.ndarray:
    """Every pair of 11 lane values (±0, ±inf, ±NaN and finite values that
    round to zero or sit on ties): 121 complex numbers, 242 lanes."""
    lanes = np.array([0.0, -0.0, _INF, -_INF, _NAN, -_NAN,
                      0.25 * step, -0.25 * step, 1.5 * step, -1.5 * step,
                      0.49999999999999994 * step])
    re, im = np.meshgrid(lanes, lanes, indexing="ij")
    values = np.empty(re.shape, dtype=complex)
    values.real, values.imag = re, im
    return values.ravel()


def _literal(quantizer: Quantizer, values: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # 1j * inf
        return quantizer.quantize(values.real) + 1j * quantizer.quantize(
            values.imag)


class TestRounding:
    def test_round_to_nearest(self):
        q = Quantizer(QFormat(2, 2), rounding=RoundingMode.ROUND)
        np.testing.assert_allclose(q(np.array([0.3, 0.4, -0.3])),
                                   [0.25, 0.5, -0.25])

    def test_round_ties_away_from_zero(self):
        # MATLAB round semantics: ties go away from zero on both sides.
        q = Quantizer(QFormat(2, 1), rounding=RoundingMode.ROUND)
        np.testing.assert_allclose(q(np.array([0.25, -0.25, 0.75, -0.75])),
                                   [0.5, -0.5, 1.0, -1.0])

    def test_round_is_odd_characteristic(self):
        q = Quantizer(QFormat(4, 5), rounding=RoundingMode.ROUND)
        x = np.linspace(-3.0, 3.0, 1537)  # includes exact tie values
        np.testing.assert_array_equal(q(-x), -q(x))

    def test_round_negative_ties_regression(self):
        # -0.5 * step used to round towards +inf (floor(x + 0.5)); the
        # corrected mode must match MATLAB round on every negative tie.
        q = Quantizer(QFormat(4, 3), rounding=RoundingMode.ROUND)
        step = q.step
        ties = -np.array([0.5, 1.5, 2.5, 7.5]) * step
        np.testing.assert_allclose(q(ties),
                                   -np.array([1.0, 2.0, 3.0, 8.0]) * step)

    def test_truncate_goes_towards_minus_infinity(self):
        q = Quantizer(QFormat(2, 2), rounding=RoundingMode.TRUNCATE)
        np.testing.assert_allclose(q(np.array([0.3, -0.3])), [0.25, -0.5])

    def test_convergent_ties_to_even(self):
        q = Quantizer(QFormat(3, 0), rounding=RoundingMode.CONVERGENT)
        np.testing.assert_allclose(q(np.array([0.5, 1.5, 2.5, -0.5])),
                                   [0.0, 2.0, 2.0, 0.0])

    def test_values_on_grid_unchanged(self):
        q = Quantizer(QFormat(3, 4))
        values = np.array([0.0625, -2.5, 3.9375, 0.0])
        np.testing.assert_array_equal(q(values), values)

    def test_error_bounded_by_step(self):
        q = Quantizer(QFormat(4, 6), rounding=RoundingMode.ROUND)
        x = np.linspace(-7, 7, 1001)
        assert np.max(np.abs(q.error(x))) <= q.step / 2 + 1e-15

    def test_truncation_error_sign(self):
        q = Quantizer(QFormat(4, 6), rounding=RoundingMode.TRUNCATE)
        x = np.linspace(-7, 7, 1001)
        errors = q.error(x)
        assert np.all(errors <= 0.0)
        assert np.all(errors > -q.step)


class TestNoOverflowHandling:
    def test_out_of_range_values_are_only_rounded(self):
        # Range of Q(1, 2) is [-2, 1.75]: values past it keep their size.
        q = Quantizer(QFormat(1, 2))
        np.testing.assert_allclose(q(np.array([5.0, -5.1])), [5.0, -5.0])

    @pytest.mark.parametrize("mode", list(RoundingMode))
    @pytest.mark.parametrize("integer_bits", [0, 1, 4, 15])
    def test_integer_width_changes_no_value(self, mode, integer_bits):
        # Values up to 2**20 steps past every range: each output is the
        # rounded step mantissa rescaled, whatever the integer width.
        q = Quantizer(QFormat(integer_bits, 6), rounding=mode)
        values = np.random.default_rng(integer_bits).uniform(
            -2.0 ** 14, 2.0 ** 14, 500)
        expected = apply_rounding(values / q.step, mode) * q.step
        assert np.array_equal(_bits(q(values)), _bits(expected))
        errors = q(values) - values
        assert np.all(np.abs(errors) < q.step)


class TestProperties:
    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50),
           st.integers(min_value=0, max_value=20),
           st.sampled_from(list(RoundingMode)))
    def test_idempotent(self, values, frac, mode):
        q = Quantizer(QFormat(15, frac), rounding=mode)
        once = q(np.array(values))
        twice = q(once)
        np.testing.assert_array_equal(once, twice)

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50),
           st.integers(min_value=0, max_value=20))
    def test_output_on_grid(self, values, frac):
        q = Quantizer(QFormat(15, frac))
        output = q(np.array(values))
        mantissa = output / q.step
        np.testing.assert_allclose(mantissa, np.round(mantissa), atol=1e-6)

    @given(st.integers(min_value=0, max_value=18))
    def test_finer_grid_gives_smaller_error(self, frac):
        x = np.linspace(-1, 1, 257)
        coarse = Quantizer(QFormat(3, frac)).error(x)
        fine = Quantizer(QFormat(3, frac + 2)).error(x)
        assert np.mean(fine ** 2) <= np.mean(coarse ** 2) + 1e-18


class TestInPlaceComplexQuantizer:
    """``Quantizer.quantize_complex`` against the literal
    ``quantize(re) + 1j * quantize(im)``, bit for bit."""

    @staticmethod
    def _values(step: float) -> np.ndarray:
        rng = np.random.default_rng(7)
        mantissas = _MANTISSAS * step
        re, im = np.meshgrid(mantissas, mantissas[::-1], indexing="ij")
        ties = re.ravel() + 1j * im.ravel()
        noise = (rng.uniform(-3.0, 3.0, 200)
                 + 1j * rng.uniform(-3.0, 3.0, 200))
        return np.concatenate([_lane_grid(step), ties, noise])

    @pytest.mark.parametrize("mode", list(RoundingMode))
    @pytest.mark.parametrize("bits", [0, 4, 12, 52])
    def test_matches_literal_composition(self, mode, bits):
        quantizer = Quantizer(QFormat(15, bits), rounding=mode)
        values = self._values(quantizer.step)
        expected = _literal(quantizer, values)
        with np.errstate(invalid="ignore"):
            in_place = quantizer.quantize_complex(values.copy())
            with_work = quantizer.quantize_complex(
                values.copy(), work=np.empty_like(values))
        assert np.array_equal(_bits(in_place), _bits(expected))
        assert np.array_equal(_bits(with_work), _bits(expected))

    def test_quantizes_in_place_over_a_stack(self):
        quantizer = Quantizer(QFormat(15, 5))
        rng = np.random.default_rng(9)
        values = rng.standard_normal((4, 3, 16)) + 1j * rng.standard_normal(
            (4, 3, 16))
        expected = _literal(quantizer, values)
        result = quantizer.quantize_complex(values)
        assert result is values
        assert np.array_equal(_bits(values), _bits(expected))

    def test_lane_rule_is_zero_times_imaginary_not_copysign(self):
        # The real lane is q(re) + 0.0 * q(im), which keeps the NaN that
        # 0.0 * inf gives; a copysign(0.0, q(im)) form agrees on signed
        # zeros but not there, and the grid tells the two apart.
        quantizer = Quantizer(QFormat(15, 4))
        values = _lane_grid(quantizer.step)
        q_re, q_im = (quantizer.quantize(values.real),
                      quantizer.quantize(values.imag))
        copysign_form = q_re + np.copysign(0.0, q_im)
        expected = _literal(quantizer, values)
        with np.errstate(invalid="ignore"):
            result = quantizer.quantize_complex(values.copy())
        assert np.array_equal(_bits(result), _bits(expected))
        assert not np.array_equal(_bits(copysign_form),
                                  _bits(expected.real))

    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_out_form_of_apply_rounding_matches_allocating_form(self, mode):
        rng = np.random.default_rng(10)
        mantissas = np.concatenate([
            _MANTISSAS, [0.0, -0.0, _INF, -_INF, _NAN, -_NAN],
            rng.uniform(-1e6, 1e6, 500)])
        out = np.empty_like(mantissas)
        result = apply_rounding(mantissas, mode, out=out)
        assert result is out
        assert np.array_equal(_bits(out),
                              _bits(apply_rounding(mantissas, mode)))

    def test_apply_rounding_rejects_an_overlapping_out(self):
        mantissas = np.array([0.5, -1.5])
        with pytest.raises(ValueError, match="overlap"):
            apply_rounding(mantissas, RoundingMode.ROUND, out=mantissas)

    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_quantize_leaves_its_input_untouched(self, mode):
        quantizer = Quantizer(QFormat(2, 4), rounding=mode)
        values = np.concatenate([_MANTISSAS * quantizer.step,
                                 [-0.0, 9.3, -9.3]])
        before = values.copy()
        quantizer.quantize(values)
        assert np.array_equal(_bits(values), _bits(before))
