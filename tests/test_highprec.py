"""Compensated arithmetic: error-free transforms, double-double ops,
and agreement between the two independent series precision ladders."""
import math
from fractions import Fraction

import numpy as np
import pytest

from susy_ces import highprec
from susy_ces.errors import NonConvergence
from susy_ces.highprec import (
    CDD,
    DD,
    _fixed_sum,
    _int_to_float,
    _two_prod,
    _two_sum,
    chf_series_dd,
    chf_series_fixed,
)


def _rand_floats(rng, n):
    """Floats with widely varying binary exponents (but no overflow risk)."""
    mant = rng.uniform(-1.0, 1.0, size=n)
    expo = rng.integers(-40, 40, size=n)
    return [math.ldexp(m, int(e)) for m, e in zip(mant, expo)]


def test_two_sum_is_error_free():
    rng = np.random.default_rng(101)
    for a, b in zip(_rand_floats(rng, 300), _rand_floats(rng, 300)):
        s, e = _two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_two_prod_is_error_free():
    rng = np.random.default_rng(102)
    for a, b in zip(_rand_floats(rng, 300), _rand_floats(rng, 300)):
        p, e = _two_prod(a, b)
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def _dd_fraction(d: DD) -> Fraction:
    return Fraction(float(d.hi)) + Fraction(float(d.lo))


def test_dd_division_and_multiplication_round_trip():
    third = DD.from_float(1.0).div_d(3.0)
    err = abs(_dd_fraction(third) - Fraction(1, 3))
    assert err <= Fraction(1, 2 ** 100)
    back = third.mul_d(3.0)
    assert abs(_dd_fraction(back) - 1) <= Fraction(1, 2 ** 100)


def test_dd_div_dd_small_residual():
    # q = x / y must satisfy |q y - x| <= ~2^-98 |x| (double-double quality)
    rng = np.random.default_rng(103)
    for _ in range(100):
        x = DD.from_float(rng.uniform(-10, 10)).div_d(rng.uniform(1, 7))
        y = DD.from_float(rng.uniform(0.5, 10)).div_d(rng.uniform(1, 7))
        q = x.div_dd(y)
        resid = abs(_dd_fraction(q) * _dd_fraction(y) - _dd_fraction(x))
        assert resid <= Fraction(1, 2 ** 95) * abs(_dd_fraction(x))


def test_cdd_complex_multiplication():
    a = CDD(DD.from_float(1.0), DD.from_float(2.0))
    b = CDD(DD.from_float(3.0), DD.from_float(4.0))
    c = a.mul(b)  # (1+2i)(3+4i) = -5 + 10i, exactly representable
    assert float(c.re.to_float()) == -5.0
    assert float(c.im.to_float()) == 10.0
    assert float(c.re.lo) == 0.0 and float(c.im.lo) == 0.0


_SERIES_PROBES = [
    (0.5j, 0.5, -30j),
    (0.5j, 0.5, -40j),
    (-0.3 + 0.2j, 1.2, 40j),      # non-representable re(a): needs dd-carried a+k
    (1 + 1j, 2.5, 20 + 20j),
    (0.5 + 0.5j, 0.5, -38j),
    (2j, 0.5, 33j),
]


@pytest.mark.parametrize("a,b,z", _SERIES_PROBES)
def test_series_dd_agrees_with_fixed_point(a, b, z):
    """The two precision ladders are fully independent implementations."""
    dd_val = complex(chf_series_dd(complex(a), float(b), np.asarray(z, dtype=complex)))
    fx_val = chf_series_fixed(complex(a), float(b), complex(z))
    assert abs(dd_val - fx_val) / max(1.0, abs(fx_val)) < 1e-13


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


def test_series_dd_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(highprec, "MAX_TERMS", 3)
    with pytest.raises(NonConvergence):
        chf_series_dd(0.5j, 0.5, np.asarray(-30j, dtype=complex))


def test_series_dd_vectorised_matches_scalar():
    # lanes that converge early keep receiving sub-tolerance terms until
    # the slowest lane finishes, so agreement is to tolerance, not bitwise
    zs = np.array([-2j, -17j, 33j, 5 + 5j])
    vec = chf_series_dd(0.5j, 0.5, zs)
    for i, z in enumerate(zs):
        scalar = complex(chf_series_dd(0.5j, 0.5, np.asarray(z, dtype=complex)))
        assert abs(complex(vec[i]) - scalar) <= 1e-13 * max(1.0, abs(scalar))
