"""Partner potentials: algebraic identities, landmarks, tails, guards."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from susy_ces import closedform as cf
from susy_ces import oracle
from susy_ces import potential as pot
from susy_ces.errors import DomainError, DoubleRangeExceeded, InvalidParams, SusyCesError
from susy_ces.potential import Sector

X_GRID = np.logspace(-6, 6, 400)
M_VALUES = (1.0, 2.0, 0.5, 1.75, math.pi, 1.0 / 3.0)

sane_m = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                   allow_infinity=False).filter(lambda m: m != 0.0)


def term_scale(x, m):
    """Magnitude of the two contributions (relative-error reference that
    stays meaningful near the zero of the potential)."""
    return (m * m) / x + abs(0.5 * m) / (x * np.sqrt(x))


def test_superpotential_spot_values():
    # exact in binary arithmetic: sqrt(4) and the divisions are exact
    assert pot.superpotential(4.0, 2.0) == -1.0
    assert pot.superpotential_deriv(4.0, 2.0) == 0.125
    assert pot.superpotential(1.0, -3.0) == 3.0


def test_two_potential_routes_agree():
    for m in M_VALUES:
        for sec in Sector:
            a = pot.V(X_GRID, m, sec)
            b = pot.V_from_superpotential(X_GRID, m, sec)
            assert np.max(np.abs(a - b) / term_scale(X_GRID, m)) < 2e-15


@given(m=sane_m)
def test_two_potential_routes_agree_property(m):
    x = np.logspace(-3, 3, 40)
    for sec in Sector:
        a = pot.V(x, m, sec)
        b = pot.V_from_superpotential(x, m, sec)
        assert np.max(np.abs(a - b) / term_scale(x, m)) < 2e-15


def test_shape_invariance_is_bit_exact():
    for m in M_VALUES:
        gap = pot.shape_invariance_gap(X_GRID, m)
        assert np.all(gap == 0.0)
        direct = pot.V(X_GRID, m, Sector.PLUS) == pot.V(X_GRID, -m, Sector.MINUS)
        assert np.all(direct)


@given(m=sane_m)
def test_shape_invariance_property(m):
    x = np.logspace(-4, 4, 60)
    assert np.all(pot.shape_invariance_gap(x, m) == 0.0)


def test_coefficient_lock_residual_is_exactly_zero():
    for m in M_VALUES + (0.3183098861837907, 123.456):
        assert pot.ces_residual(m) == 0.0


@given(m=sane_m)
def test_coefficient_lock_property(m):
    assert pot.ces_residual(m) == 0.0


def test_landmarks_m2_exact():
    # all quantities are exactly representable for m = 2
    cs = pot.critical_structure(2.0)
    assert cs.zero_x == 0.0625          # 1/16
    assert cs.max_x == 0.140625         # 9/64
    assert cs.max_value == pytest.approx(256.0 / 27.0, rel=1e-15)
    assert pot.V(0.0625, 2.0, Sector.MINUS) == 0.0
    assert pot.V_deriv(0.140625, 2.0, Sector.MINUS) == 0.0
    assert pot.V(0.140625, 2.0, Sector.MINUS) == pytest.approx(256.0 / 27.0, rel=1e-14)


@pytest.mark.parametrize("m", (0.5, 1.0, 3.25))
def test_landmarks_general(m):
    cs = pot.critical_structure(m)
    m2 = m * m
    assert cs.zero_x == pytest.approx(1.0 / (4.0 * m2), rel=1e-15)
    assert cs.max_x == pytest.approx(9.0 / (16.0 * m2), rel=1e-15)
    assert cs.max_value == pytest.approx(16.0 * m2 * m2 / 27.0, rel=1e-15)
    assert abs(float(pot.V(cs.zero_x, m, Sector.MINUS))) / m ** 4 < 1e-12
    assert abs(float(pot.V_deriv(cs.max_x, m, Sector.MINUS))) / m ** 6 < 1e-12
    assert float(pot.V(cs.max_x, m, Sector.MINUS)) == pytest.approx(cs.max_value, rel=1e-12)
    # the stationary point is a local maximum
    for eps in (1e-3, 1e-2):
        assert pot.V(cs.max_x * (1 + eps), m, Sector.MINUS) < cs.max_value
        assert pot.V(cs.max_x * (1 - eps), m, Sector.MINUS) < cs.max_value


@pytest.mark.parametrize("m", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("sector", list(Sector))
def test_asymptotic_tails(m, sector):
    # x -> inf: x V -> m^2  (the x^-3/2 term is subleading)
    x_far = 1e14
    assert abs(x_far * float(pot.V(x_far, m, sector)) / (m * m) - 1.0) < 1e-6
    # x -> 0: x^{3/2} V -> +- m/2  (the x^-3/2 term dominates)
    x_near = 1e-14
    lead = sector.sign * 0.5 * m
    got = x_near * math.sqrt(x_near) * float(pot.V(x_near, m, sector))
    assert abs(got / lead - 1.0) < 1e-6


def test_derivative_matches_central_difference():
    x = np.logspace(-2, 2, 50)
    for m in (0.5, 1.0, 2.0):
        for sec in Sector:
            h = 1e-6 * x
            fd = (pot.V(x + h, m, sec) - pot.V(x - h, m, sec)) / (2 * h)
            an = pot.V_deriv(x, m, sec)
            scale = (m / (x * x)) * (m + 0.75 / np.sqrt(x))
            assert np.max(np.abs(fd - an) / scale) < 1e-7


def test_sector_sign_difference():
    # V_plus - V_minus = 2 W' = m x^-3/2
    x = np.logspace(-3, 3, 50)
    for m in (0.5, 1.0, math.pi):
        gap = pot.V(x, m, Sector.PLUS) - pot.V(x, m, Sector.MINUS)
        want = 2.0 * pot.superpotential_deriv(x, m)
        assert np.max(np.abs(gap - want) / term_scale(x, m)) < 2e-15


def test_domain_guards():
    for bad_x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            pot.V(bad_x, 1.0, Sector.MINUS)
        with pytest.raises(DomainError):
            pot.superpotential(bad_x, 1.0)
    with pytest.raises(DomainError):
        pot.V(np.array([1.0, -2.0]), 1.0, Sector.PLUS)
    for bad_m in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidParams):
            pot.V(1.0, bad_m, Sector.MINUS)
    with pytest.raises(InvalidParams):
        pot.critical_structure(-1.0)
    with pytest.raises(InvalidParams):
        pot.critical_structure(0.0)


def test_tiny_x_is_a_typed_error():
    # x sqrt(x) underflows to 0 at 1e-220 and x**2 at 1e-170; at 1e-210 the
    # x^(-3/2) term passes the largest double.  Each is DoubleRangeExceeded,
    # never a ZeroDivisionError or an infinite value
    calls = [lambda x: pot.V(x, 1.0, Sector.PLUS),
             lambda x: pot.V_from_superpotential(x, 1.0, Sector.MINUS),
             lambda x: pot.superpotential_deriv(x, 1.0),
             lambda x: pot.shape_invariance_gap(x, 1.0)]
    for call in calls:
        for x in (1e-220, np.array([1e-220, 1.0])):
            with pytest.raises(DoubleRangeExceeded):
                call(x)
    with pytest.raises(DoubleRangeExceeded):
        pot.V_deriv(1e-170, 1.0, Sector.PLUS)
    with pytest.raises(DoubleRangeExceeded):
        pot.V(1e-210, 1.0, Sector.MINUS)
    assert -math.inf < pot.V(1e-200, 1.0, Sector.MINUS) < 0.0


def test_sector_enum():
    assert Sector.PLUS.sign == 1.0
    assert Sector.MINUS.sign == -1.0
    assert Sector("plus") is Sector.PLUS
    assert Sector("minus") is Sector.MINUS


def test_every_sector_argument_is_checked():
    # the seven public entry points that take a Sector refuse anything else
    # with the package's InvalidParams, naming the argument, not an
    # AttributeError from .sign
    p = cf.solution_params(1.0, 1.0)
    sample = cf.solution_Z(p, cf.Branch.I, Sector.MINUS, 1.0)
    calls = {
        "sector": [lambda s: pot.V(1.0, 1.0, s),
                   lambda s: pot.V_from_superpotential(1.0, 1.0, s),
                   lambda s: pot.V_deriv(1.0, 1.0, s),
                   lambda s: cf.wronskian_exact(p, s),
                   lambda s: cf.solution_Z(p, cf.Branch.I, s, 1.0),
                   lambda s: oracle.schrodinger_problem(1.0, 1.0, s)],
        "from_sector": [lambda s: cf.susy_map(p, sample, s)],
    }
    for name, entries in calls.items():
        for call in entries:
            for bad in ("plus", -1.0, None):
                with pytest.raises(InvalidParams, match=f"^{name}={bad!r} is not a Sector$") as exc:
                    call(bad)
                assert isinstance(exc.value, SusyCesError)
