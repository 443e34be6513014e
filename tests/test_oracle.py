"""Adaptive integrator, Frobenius series oracle, residual stencil."""
import cmath
import math

import mpmath
import numpy as np
import pytest

from susy_ces import closedform as cf
from susy_ces import oracle
from susy_ces.closedform import Branch
from susy_ces.errors import (
    DomainError,
    InvalidParams,
    MaxStepsExceeded,
    NonConvergence,
)
from susy_ces.oracle import integrate, schrodinger_problem
from susy_ces.potential import Sector


def test_integrator_config_validation():
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    for rel_tol in (0.0, 2.0):
        with pytest.raises(InvalidParams):
            integrate(prob, 1.0, 2.0, 1.0 + 0j, 0j, rel_tol=rel_tol)


def test_problem_construction_and_q():
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    assert prob.x_floor == 1e-3
    assert schrodinger_problem(3.0, 1.0, Sector.PLUS).x_floor == 1e-3 / 9.0
    from susy_ces.potential import V
    for x in (0.2, 1.0, 7.5):
        want = float(V(x, 1.0, Sector.MINUS)) - 1.0
        assert prob.q(x) == pytest.approx(want, rel=1e-15)
    with pytest.raises(InvalidParams):
        schrodinger_problem(-1.0, 1.0, Sector.MINUS)
    with pytest.raises(InvalidParams):
        schrodinger_problem(1.0, 0.0, Sector.MINUS)
    with pytest.raises(InvalidParams):
        schrodinger_problem(1.0, 1.0, "minus")


def test_free_wave_accuracy():
    w = 1.7
    q = lambda x: -(w * w)
    sol = oracle._integrate_rhs(q, 0.0, 25.0, (1.0 + 0j, 1j * w))
    assert abs(sol.value - cmath.exp(1j * w * 25.0)) < 1e-8
    assert sol.x == 25.0
    assert sol.n_steps > 0


def test_empirical_convergence_order():
    # adaptive runs a tolerance decade apart: error ~ steps^-p, so the
    # order is the slope of log error against log step count
    w = 1.3
    q = lambda x: -(w * w)
    runs = []
    for tol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        s = oracle._integrate_rhs(q, 0.0, 10.0, (1.0 + 0j, 1j * w), rel_tol=tol)
        runs.append((abs(s.value - cmath.exp(1j * w * 10.0)), s.n_steps))
    orders = [math.log(e1 / e2) / math.log(n2 / n1)
              for (e1, n1), (e2, n2) in zip(runs, runs[1:])]
    for order in orders:
        assert 4.3 < order < 5.7  # fifth-order propagation


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("sector", list(Sector))
def test_integration_matches_closed_form(branch, sector):
    p = cf.solution_params(1.0, 1.0)
    seed = cf.solution_Z(p, branch, sector, 1.0)
    prob = schrodinger_problem(1.0, 1.0, sector)
    sol = integrate(prob, 1.0, 10.0, complex(seed.value), complex(seed.derivative))
    ref = cf.solution_Z(p, branch, sector, 10.0)
    assert abs(sol.value - complex(ref.value)) / max(1.0, abs(complex(ref.value))) < 1e-7
    assert sol.x == 10.0  # endpoint is exact, not approximate


def test_backward_integration():
    p = cf.solution_params(1.0, 1.0)
    seed = cf.solution_Z(p, Branch.I, Sector.MINUS, 10.0)
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    sol = integrate(prob, 10.0, 1.0, complex(seed.value), complex(seed.derivative))
    ref = cf.solution_Z(p, Branch.I, Sector.MINUS, 1.0)
    assert abs(sol.value - complex(ref.value)) < 1e-7
    assert sol.x == 1.0


def test_tolerance_scaling():
    p = cf.solution_params(1.0, 1.0)
    seed = cf.solution_Z(p, Branch.I, Sector.MINUS, 1.0)
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    ref = complex(cf.solution_Z(p, Branch.I, Sector.MINUS, 10.0).value)
    errs = {}
    for tol in (1e-6, 1e-12):
        sol = integrate(prob, 1.0, 10.0, complex(seed.value), complex(seed.derivative),
                        rel_tol=tol)
        errs[tol] = abs(sol.value - ref)
    assert errs[1e-12] < errs[1e-6]
    assert errs[1e-12] < 1e-9


def test_origin_floor_guard():
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    with pytest.raises(DomainError):
        integrate(prob, 1e-5, 1.0, 1.0 + 0j, 0j)
    with pytest.raises(DomainError):
        integrate(prob, 1.0, math.inf, 1.0 + 0j, 0j)


def test_max_steps_guard(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_STEPS", 20)
    prob = schrodinger_problem(2.0, 0.5, Sector.PLUS)
    with pytest.raises(MaxStepsExceeded):
        integrate(prob, 1.0, 25.0, 1.0 + 0j, 0j)


# ---------------------------------------------------------------------------
# Frobenius series


def test_frobenius_agrees_with_hypergeometric():
    from susy_ces import specfun as sf
    worst = 0.0
    for m, omega in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (1.3, 0.7)):
        p = cf.solution_params(m, omega)
        for a in (p.a1, p.a2):
            for x in (0.3, 1.0, 5.0, 15.0):
                y = complex(-2j * omega * x)
                if abs(y) > sf.SERIES_ZMAX:
                    continue
                f0 = oracle.frobenius_series_solution(a, 0.0, y)
                g0 = sf.chf_1f1(sf.CHFParams(a, 0.5), y)
                fh = oracle.frobenius_series_solution(a, 0.5, y)
                gh = cmath.sqrt(y) * sf.chf_1f1(sf.CHFParams(a + 0.5, 1.5), y)
                worst = max(worst, abs(f0 - g0) / max(1.0, abs(g0)),
                            abs(fh - gh) / max(1.0, abs(gh)))
    assert worst < 1e-13


def test_frobenius_is_correctly_rounded():
    # the decimal sum resolves more digits than a double holds, so the
    # sigma = 0 solution is 1F1(a; 1/2; y) rounded to nearest, bit for bit
    cases = []
    for m, omega in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (1.3, 0.7)):
        p = cf.solution_params(m, omega)
        for a in (p.a1, p.a2):
            for x in (0.3, 1.0, 5.0, 15.0):
                cases.append((a, complex(-2j * omega * x)))
    # the first precision falls short here, so the second sum runs
    cases += [(20j, 59j), (50j, 10j)]
    with mpmath.workdps(50):
        for a, y in cases:
            want = complex(mpmath.hyp1f1(a, 0.5, y))
            assert oracle.frobenius_series_solution(a, 0.0, y) == want, (a, y)


def test_frobenius_guards():
    with pytest.raises(InvalidParams):
        oracle.frobenius_series_solution(0.5j, 0.25, -2j)
    with pytest.raises(NonConvergence):
        oracle.frobenius_series_solution(0.5j, 0.0, -20j, max_terms=5)


def test_frobenius_value_at_origin():
    assert oracle.frobenius_series_solution(0.5j, 0.0, 0j) == 1.0 + 0j
    assert oracle.frobenius_series_solution(0.5j, 0.5, 0j) == 0j


# ---------------------------------------------------------------------------
# residual stencil


def test_residual_detects_correct_and_wrong_solutions():
    x = np.linspace(1.0, 20.0, 25)
    # sin(x) solves u'' + u = 0: residual at the FD noise floor
    res_good = oracle.residual_schrodinger(np.sin, lambda xx: 0.0 * xx, 1.0, x)
    assert np.max(res_good) < 1e-8
    # ... but fails the same equation at energy 2 by a visible margin
    res_bad = oracle.residual_schrodinger(np.sin, lambda xx: 0.0 * xx, 2.0, x)
    assert np.max(res_bad) > 1e-2


def test_residual_domain_guard():
    with pytest.raises(DomainError):
        oracle.residual_schrodinger(np.sin, lambda xx: 0.0 * xx, 1.0, 1e-4)
