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
    DoubleRangeExceeded,
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


def test_non_finite_states_are_typed_errors():
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    for z0 in (complex(math.nan), complex(math.inf)):
        with pytest.raises(InvalidParams):
            integrate(prob, 1.0, 2.0, z0, 0j)
    # deep in the barrier of (10, 0.1) the growing solution passes 1.8e308
    prob = schrodinger_problem(10.0, 0.1, Sector.MINUS)
    with pytest.raises(DoubleRangeExceeded):
        integrate(prob, 1.0, 3000.0, 1.0 + 0j, 0j)


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


def _reference_step(prob, x0, h, y0, order, rel_tol, dps=40):
    """(Z, Z') after one Taylor step of degree ``order``, summed in mpmath.

    q_0 is the double problem.q(x0), as the kernel takes it; q_k for k >= 1
    is mm (-1)^k / x0^(k+1) + c binom(-3/2, k) x0^(-3/2-k), at ``dps``
    digits, up to the first k whose two parts, times h^(k+2), fall below
    rel_tol * _Q_CUT * h^2 (mm/x0 + |c| x0^(-3/2) + ee).
    """
    mm, c, ee = prob.coeffs
    with mpmath.workdps(dps):
        x, hm = mpmath.mpf(x0), mpmath.mpf(h)
        q = [mpmath.mpf(prob.q(x0))]
        cut = rel_tol * oracle._Q_CUT * (mm / x + abs(c) * x ** -1.5 + ee)
        for k in range(1, order - 1):
            ta = mm * (-1) ** k / x ** (k + 1)
            tb = c * mpmath.binomial(-1.5, k) * x ** (-1.5 - k)
            if (abs(ta) + abs(tb)) * abs(hm) ** k < cut:
                break
            q.append(ta + tb)
        w = [mpmath.mpc(y0[0]), hm * mpmath.mpc(y0[1])]
        for n in range(order - 1):
            acc = mpmath.fsum(q[k] * hm ** k * w[n - k] for k in range(min(n + 1, len(q))))
            w.append(hm ** 2 * acc / ((n + 1) * (n + 2)))
        return (complex(mpmath.fsum(w)),
                complex(mpmath.fsum(n * wn for n, wn in enumerate(w)) / hm))


def _one_step_cases():
    y0 = (1.0 + 0.5j, 0.3 - 1.0j)
    # an oscillatory step of about 6 radians, forward and backward: its
    # last term (~1e-5) dwarfs rounding, so the degree is pinned
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    yield "(1, 1) MINUS 40->46", prob, 40.0, 46.0, y0, 1e-3
    yield "(1, 1) MINUS 46->40", prob, 46.0, 40.0, y0, 1e-3
    # a step of exactly x0/4 near the barrier, where the cut keeps every q_k
    yield "(2, 0.5) PLUS 8->10", schrodinger_problem(2.0, 0.5, Sector.PLUS), 8.0, 10.0, \
        y0, 1e-12


def test_one_step_matches_the_series_reference():
    for name, prob, x0, x1, y0, rel_tol in _one_step_cases():
        got = oracle._integrate_rhs(prob.coeffs, x0, x1, y0, rel_tol=rel_tol)
        assert (got.x, got.n_steps, got.n_rejected) == (x1, 1, 0), name
        scale = max(1.0, abs(got.value), abs(got.derivative))
        for order, agree in ((oracle.ORDER, True), (oracle.ORDER - 1, False),
                             (oracle.ORDER + 1, False)):
            ref = _reference_step(prob, x0, x1 - x0, y0, order, rel_tol)
            gap = max(abs(got.value - ref[0]), abs(got.derivative - ref[1])) / scale
            if agree:
                assert gap < 1e-13, (name, gap)
            elif "(1, 1)" in name:
                assert gap > 1e-8, (name, order, gap)


def test_free_wave_accuracy():
    w = 1.7
    sol = oracle._integrate_rhs((0.0, 0.0, w * w), 0.0, 25.0, (1.0 + 0j, 1j * w))
    assert abs(sol.value - cmath.exp(1j * w * 25.0)) < 1e-8
    assert sol.x == 25.0
    assert sol.n_steps > 0


def test_empirical_convergence_order():
    # single free-wave steps of 6 and 4.8 radians: the truncation error
    # (~1e-6 and ~1e-8) stands far above rounding and scales as h^(p+1)
    w = 1.3
    errs = []
    for h in (6.0 / w, 4.8 / w):
        s = oracle._integrate_rhs((0.0, 0.0, w * w), 0.0, h, (1.0 + 0j, 1j * w),
                                  rel_tol=1e-3)
        assert s.n_steps == 1 and s.n_rejected == 0
        errs.append(abs(s.value - cmath.exp(1j * w * h)))
    order = math.log(errs[0] / errs[1]) / math.log(6.0 / 4.8) - 1.0
    assert 23.5 < order < 24.5  # degree-24 Taylor steps


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
    monkeypatch.setattr(oracle, "MAX_STEPS", 10)
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
