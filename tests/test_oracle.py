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
    # q precomputes the constants of V - omega^2: the same double as potential.V
    from susy_ces.potential import V
    rng = np.random.default_rng(7)
    cases = [(m, w, x) for m in (0.05, 1.0, 5.0) for w in (0.3, 1.0, 2.7)
             for x in (1e-2, 0.2, 1.0, 7.5, 1e3, 1e5)]
    cases += zip(10 ** rng.uniform(-1.5, 0.8, 500), 10 ** rng.uniform(-1, 0.5, 500),
                 10 ** rng.uniform(-2, 5, 500))
    for m, omega, x in cases:
        m, omega, x = float(m), float(omega), float(x)
        for sector in Sector:
            prob = schrodinger_problem(m, omega, sector)
            assert prob.q(x) == float(V(x, m, sector)) - omega * omega, (m, omega, x)
    with pytest.raises(InvalidParams):
        schrodinger_problem(-1.0, 1.0, Sector.MINUS)
    with pytest.raises(InvalidParams):
        schrodinger_problem(1.0, 0.0, Sector.MINUS)
    with pytest.raises(InvalidParams):
        schrodinger_problem(1.0, 1.0, "minus")


# Dormand-Prince 5(4) as a loop over the full tableau: the reference the
# written-out kernel must reproduce bit for bit
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_REF_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _wrms(u, v, err, rel, ab):
    s = 0.0
    for i in (0, 1):
        sc = ab + rel * max(abs(u[i]), abs(v[i]))
        e = abs(err[i]) / sc
        s += e * e
    return math.sqrt(0.5 * s)


def _reference_integrate(q, x0, x1, y0, rel_tol=1e-10):
    direction = 1.0 if x1 > x0 else -1.0
    x = x0
    y = (complex(y0[0]), complex(y0[1]))
    k1 = (y[1], q(x) * y[0])
    h = oracle._initial_step(q, x0, y, k1, direction, abs(x1 - x0))
    n_steps = n_rej = 0
    err_prev = 1.0
    ks = [k1] + [None] * 6
    while (x1 - x) * direction > 0:
        if (x1 - x) * direction <= 1.05 * h:
            hs, is_last = x1 - x, True
        else:
            hs, is_last = h * direction, False
        for i in range(1, 7):
            acc0 = acc1 = 0j
            for j in range(i):
                if _REF_A[i][j] != 0.0:
                    acc0 += _REF_A[i][j] * ks[j][0]
                    acc1 += _REF_A[i][j] * ks[j][1]
            ks[i] = (y[1] + hs * acc1, q(x + _REF_C[i] * hs) * (y[0] + hs * acc0))
        acc0 = acc1 = e0 = e1 = 0j
        for i in range(7):
            if _REF_B5[i] != 0.0:
                acc0 += _REF_B5[i] * ks[i][0]
                acc1 += _REF_B5[i] * ks[i][1]
            if _REF_E[i] != 0.0:
                e0 += _REF_E[i] * ks[i][0]
                e1 += _REF_E[i] * ks[i][1]
        ynew = (y[0] + hs * acc0, y[1] + hs * acc1)
        err = _wrms(y, ynew, (hs * e0, hs * e1), rel_tol, oracle.ABS_TOL)
        if err <= 1.0:
            x = x1 if is_last else x + hs
            y = ynew
            ks[0] = ks[6]
            n_steps += 1
            fac = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 5.0
            h = h * min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-4)
        else:
            n_rej += 1
            h = h * min(1.0, max(0.2, 0.9 * err ** -0.2))
    return oracle.ODESolution(x, y[0], y[1], n_steps, n_rej)


def _kernel_cases():
    p = cf.solution_params(1.0, 1.0)
    for sector in Sector:
        q = schrodinger_problem(1.0, 1.0, sector).q
        for x0, x1 in ((1.0, 10.0), (10.0, 1.0)):
            s = cf.solution_Z(p, Branch.I, sector, x0)
            yield f"(1, 1) {sector.name} {x0:g}->{x1:g}", q, x0, x1, \
                (complex(s.value), complex(s.derivative)), 1e-10
    w = 1.7
    for rel_tol in (1e-6, 1e-10):
        yield f"free wave rel_tol={rel_tol:g}", lambda x: -(w * w), 0.0, 25.0, \
            (1.0 + 0j, 1j * w), rel_tol
    p = cf.solution_params(2.0, 0.5)
    s = cf.solution_Z(p, Branch.I, Sector.MINUS, 40.0)
    yield "ladder segment (2, 0.5) 40->80", schrodinger_problem(2.0, 0.5, Sector.MINUS).q, \
        40.0, 80.0, (complex(s.value), complex(s.derivative)), 1e-10


def _bits(sol):
    return (sol.x.hex(), sol.value.real.hex(), sol.value.imag.hex(),
            sol.derivative.real.hex(), sol.derivative.imag.hex(),
            sol.n_steps, sol.n_rejected)


def test_kernel_matches_the_table_driven_reference_bit_for_bit():
    for name, q, x0, x1, y0, rel_tol in _kernel_cases():
        got = oracle._integrate_rhs(q, x0, x1, y0, rel_tol=rel_tol)
        want = _reference_integrate(q, x0, x1, y0, rel_tol)
        assert want.n_steps > 0 and want.n_rejected >= 0
        assert _bits(got) == _bits(want), name


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
