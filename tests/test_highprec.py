"""The fixed-point 1F1 series: correct rounding against mpmath, the width
check, the single final rounding and the term budget."""
from fractions import Fraction

import mpmath
import pytest

from susy_ces import highprec
from susy_ces.errors import NonConvergence
from susy_ces.highprec import _fixed_sum, _int_to_float, chf_series_fixed


_SERIES_PROBES = [
    (0.5j, 0.5, -30j),
    (0.5j, 0.5, -40j),
    (-0.3 + 0.2j, 1.2, 40j),      # non-representable re(a) and b
    (1 + 1j, 2.5, 20 + 20j),
    (0.5 + 0.5j, 0.5, -38j),
    (2j, 0.5, 33j),
]


@pytest.mark.parametrize("a,b,z", _SERIES_PROBES)
def test_series_dd_agrees_with_fixed_point(a, b, z):
    """The fixed-point sum is mpmath's 60-digit value correctly rounded."""
    with mpmath.workdps(60):
        want = complex(mpmath.hyp1f1(a, b, z))
    assert chf_series_fixed(complex(a), float(b), complex(z)) == want


def test_fixed_point_precision_ladder_consistent():
    a, b, z = -0.3 + 0.2j, 1.2, 40j
    lo = _fixed_sum(a, b, z, 320)[:2]
    hi = _fixed_sum(a, b, z, 400)[:2]
    for lo_int, hi_int in zip(lo, hi):
        lo_f = Fraction(lo_int, 2 ** 320)
        hi_f = Fraction(hi_int, 2 ** 400)
        assert abs(lo_f - hi_f) <= max(abs(hi_f), Fraction(1)) * Fraction(1, 10 ** 40)


def test_too_narrow_width_is_widened():
    # 16 bits hold the sum to about 1e-5; the width check sees the sum
    # standing too few bits above its truncation bound and sums again
    a, b, z = 0.5j, 0.5, -40j
    want = chf_series_fixed(a, b, z, bits=500)
    sr, si, _, _ = _fixed_sum(a, b, z, 16)
    narrow = complex(_int_to_float(sr, -16), _int_to_float(si, -16))
    assert abs(narrow - want) > 1e-6 * abs(want)
    assert chf_series_fixed(a, b, z, bits=16) == want
    assert chf_series_fixed(a, b, z) == want


def test_int_to_float_rounding():
    assert _int_to_float(1, -2) == 0.25
    assert _int_to_float(3, -1) == 1.5
    assert _int_to_float(-3, -1) == -1.5
    assert _int_to_float(0, 5) == 0.0
    # 2^60 + 1 rounds to 2^60 at double precision
    assert _int_to_float((1 << 60) + 1, -60) == 1.0


def test_int_to_float_rounds_once():
    # M + 1/4 with M odd and 53 bits wide: a first rounding to 54 bits gives
    # the tie M + 1/2, which a second rounding to even would carry up to M + 1
    m = (1 << 52) + 1
    assert _int_to_float((m << 2) | 1, -2) == float(m)
    assert _int_to_float((m << 2) | 3, -2) == float(m + 1)


def test_series_fixed_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(highprec, "MAX_TERMS", 3)
    with pytest.raises(NonConvergence):
        chf_series_fixed(0.5j, 0.5, -30j)
