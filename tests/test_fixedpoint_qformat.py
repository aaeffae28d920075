"""Unit tests for :mod:`repro.fixedpoint.qformat`."""

import pytest

from repro.fixedpoint.qformat import QFormat


class TestBasics:
    def test_step_is_power_of_two(self):
        assert QFormat(2, 5).step == 2.0 ** -5

    def test_total_bits_includes_sign(self):
        assert QFormat(2, 5, signed=True).total_bits == 8
        assert QFormat(2, 5, signed=False).total_bits == 7

    def test_negative_fractional_bits_rejected(self):
        with pytest.raises(ValueError):
            QFormat(2, -1)

    def test_empty_format_rejected(self):
        with pytest.raises(ValueError):
            QFormat(-3, 2, signed=True)

    def test_str_mentions_signedness(self):
        assert "s" in str(QFormat(1, 2))
        assert "u" in str(QFormat(1, 2, signed=False))


class TestTransforms:
    def test_equality_and_hash(self):
        assert QFormat(1, 2) == QFormat(1, 2)
        assert hash(QFormat(1, 2)) == hash(QFormat(1, 2))
        assert QFormat(1, 2) != QFormat(1, 3)
