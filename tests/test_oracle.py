"""Adaptive integrator, Frobenius series oracle, residual stencil."""
import ast
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
    StepSizeUnderflow,
)
from susy_ces.oracle import integrate, schrodinger_problem
from susy_ces.potential import Sector


def test_integrator_config_validation():
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    with pytest.raises(InvalidParams):
        integrate(prob, 2.0, 2.0, 1.0 + 0j, 0j)


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
    # coeffs are the constants of V - omega^2: q(x) from them is the same
    # double as potential.V
    from susy_ces.potential import V
    rng = np.random.default_rng(7)
    cases = [(m, w, x) for m in (0.05, 1.0, 5.0) for w in (0.3, 1.0, 2.7)
             for x in (1e-2, 0.2, 1.0, 7.5, 1e3, 1e5)]
    cases += zip(10 ** rng.uniform(-1.5, 0.8, 500), 10 ** rng.uniform(-1, 0.5, 500),
                 10 ** rng.uniform(-2, 5, 500))
    for m, omega, x in cases:
        m, omega, x = float(m), float(omega), float(x)
        for sector in Sector:
            mm, c, ee = schrodinger_problem(m, omega, sector).coeffs
            q = mm / x + c / (x * math.sqrt(x)) - ee
            assert q == float(V(x, m, sector)) - omega * omega, (m, omega, x)
    with pytest.raises(InvalidParams):
        schrodinger_problem(-1.0, 1.0, Sector.MINUS)
    with pytest.raises(InvalidParams):
        schrodinger_problem(1.0, 0.0, Sector.MINUS)
    with pytest.raises(InvalidParams):
        schrodinger_problem(1.0, 1.0, "minus")


def _reference_step(prob, x0, x1, y0, order, dps=40):
    """(Z, Z') after one Taylor step of degree ``order`` in s = sqrt(x),
    from s0 = sqrt(x0) to s1 = sqrt(x1) as doubles, summed in mpmath.

    The coefficients z_n of Z at s0 follow s0 (n+1)(n+2) z_{n+2} =
    -(n+1)(n-1) z_{n+1} + 4 sum_k p_k z_{n-k}, p = (mm s0 + c - ee s0^3,
    mm - 3 ee s0^2, -3 ee s0, -ee), at ``dps`` digits; Z' = Z_s / (2 s1).
    """
    mm, c, ee = prob.coeffs
    s0, s1 = math.sqrt(x0), math.sqrt(x1)
    with mpmath.workdps(dps):
        s, h = mpmath.mpf(s0), mpmath.mpf(s1) - mpmath.mpf(s0)
        p = (mm * s + c - ee * s ** 3, mm - 3 * ee * s ** 2, -3 * ee * s, -ee)
        z = [mpmath.mpc(y0[0]), 2 * s * mpmath.mpc(y0[1])]
        for n in range(order - 1):
            acc = 4 * mpmath.fsum(p[k] * z[n - k] for k in range(min(n + 1, 4)))
            z.append((acc - (n + 1) * (n - 1) * z[n + 1]) / (s * (n + 1) * (n + 2)))
        zs = mpmath.fsum(n * zn * h ** (n - 1) for n, zn in enumerate(z) if n)
        return (complex(mpmath.fsum(zn * h ** n for n, zn in enumerate(z))),
                complex(zs / (2 * mpmath.mpf(s1))))


def _one_step(coeffs, x0, x1, y0):
    """(Z, Z') after one :func:`oracle._taylor_step` from s0 = sqrt(x0) to
    s1 = sqrt(x1), one step for each part of the complex state."""
    s0, s1 = math.sqrt(x0), math.sqrt(x1)
    (v, t), (vi, ti) = (oracle._taylor_step(*coeffs, s0, s1 - s0, u, 2.0 * s0 * du)[:2]
                        for u, du in ((y0[0].real, y0[1].real), (y0[0].imag, y0[1].imag)))
    return complex(v, vi), complex(t, ti) / (2.0 * s1)


def _one_step_cases():
    y0 = (1.0 + 0.5j, 0.3 - 1.0j)
    # an oscillatory step of about 7 radians, forward and backward: its
    # last terms (1e-8 to 1e-6) dwarf rounding, so the degree is pinned
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    yield "(1, 1) MINUS 40->47", prob, 40.0, 47.0, y0
    yield "(1, 1) MINUS 47->40", prob, 47.0, 40.0, y0
    # a step of 0.2 s0 near the barrier, next to the reach 0.24 s0, where
    # the h/s0 terms of the recurrence weigh most
    yield "(2, 0.5) PLUS 8->11.5", schrodinger_problem(2.0, 0.5, Sector.PLUS), 8.0, 11.5, y0


def test_one_step_matches_the_series_reference():
    for name, prob, x0, x1, y0 in _one_step_cases():
        value, derivative = _one_step(prob.coeffs, x0, x1, y0)
        scale = max(1.0, abs(value), abs(derivative))
        for order, agree in ((oracle.ORDER, True), (oracle.ORDER - 1, False),
                             (oracle.ORDER + 1, False)):
            ref = _reference_step(prob, x0, x1, y0, order)
            gap = max(abs(value - ref[0]), abs(derivative - ref[1])) / scale
            if agree:
                assert gap < 1e-13, (name, gap)
            elif "(1, 1)" in name:
                assert gap > 1e-8, (name, order, gap)


def test_complex_state_integrates_as_two_real_solutions():
    # q is real, so each part of Z is a real solution stepped on its own
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    z0, dz0 = 0.7 - 1.3j, -0.4 + 0.9j
    both = integrate(prob, 40.0, 95.0, z0, dz0)
    re = integrate(prob, 40.0, 95.0, z0.real, dz0.real)
    im = integrate(prob, 40.0, 95.0, z0.imag, dz0.imag)
    assert both.value == complex(re.value.real, im.value.real)
    assert both.derivative == complex(re.derivative.real, im.derivative.real)
    assert both.n_steps == re.n_steps + im.n_steps > 0
    assert both.n_rejected == re.n_rejected + im.n_rejected
    # a real state takes only its real part's steps: its imaginary part
    # stays exactly 0
    assert (re.value.imag, re.derivative.imag) == (0.0, 0.0)
    # a zero state stays zero and takes no steps
    assert integrate(prob, 40.0, 95.0, 0j, 0j) == (95.0, 0j, 0j, 0, 0)


def test_segments_must_lie_in_positive_x():
    # the kernel steps in s = sqrt(x); public integrate floors x higher
    for x0, x1 in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -4.0), (math.nan, 1.0)):
        with pytest.raises(InvalidParams, match="sqrt"):
            oracle._integrate_rhs((1.0, -0.5, 1.0), x0, x1, (1.0 + 0j, 0j))


def test_free_wave_accuracy():
    w = 1.7
    sol = oracle._integrate_rhs((0.0, 0.0, w * w), 1.0, 25.0, (1.0 + 0j, 1j * w))
    assert abs(sol.value - cmath.exp(1j * w * (25.0 - 1.0))) < 1e-8
    assert sol.x == 25.0
    assert sol.n_steps > 0


def test_empirical_convergence_order():
    # single free-wave steps of 7 and 5.6 radians from x0 = 25, one for
    # each part of the wave: the truncation error (~4e-8 and ~4e-11) stands
    # far above rounding and scales as h^(p+1), h the step in s = sqrt(x)
    w, s0 = 1.3, 5.0
    errs, hs = [], []
    for phase in (7.0, 5.6):
        x1 = (s0 + phase / (2.0 * w * s0)) ** 2
        value, _ = _one_step((0.0, 0.0, w * w), s0 * s0, x1, (1.0 + 0j, 1j * w))
        errs.append(abs(value - cmath.exp(1j * w * (x1 - s0 * s0))))
        hs.append(math.sqrt(x1) - s0)
    order = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1]) - 1.0
    assert oracle.ORDER - 0.5 < order < oracle.ORDER + 0.5


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("sector", list(Sector))
def test_integration_matches_closed_form(branch, sector):
    p = cf.solution_params(1.0, 1.0)
    seed = cf.solution_Z(p, branch, sector, 1.0)
    prob = schrodinger_problem(1.0, 1.0, sector)
    sol = integrate(prob, 1.0, 10.0, complex(seed.value), complex(seed.derivative))
    ref = cf.solution_Z(p, branch, sector, 10.0)
    assert abs(sol.value - complex(ref.value)) / max(1.0, abs(complex(ref.value))) < 1e-12
    assert sol.x == 10.0  # endpoint is exact, not approximate


def test_backward_integration():
    p = cf.solution_params(1.0, 1.0)
    seed = cf.solution_Z(p, Branch.I, Sector.MINUS, 10.0)
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    sol = integrate(prob, 10.0, 1.0, complex(seed.value), complex(seed.derivative))
    ref = cf.solution_Z(p, Branch.I, Sector.MINUS, 1.0)
    assert abs(sol.value - complex(ref.value)) < 1e-7
    assert sol.x == 1.0


def test_chained_segments_match_one_segment():
    # eight segments land on sqrt(x1) eight times; one segment once
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    one = integrate(prob, 640.0, 1280.0, 1.0 + 0j, 1j)
    x, z, dz = 640.0, 1.0 + 0j, 1j
    for k in range(1, 9):
        sol = integrate(prob, x, 640.0 + 80.0 * k, z, dz)
        x, z, dz = sol.x, sol.value, sol.derivative
    assert x == one.x == 1280.0
    assert abs(z - one.value) <= 1e-9 * abs(one.value)
    assert abs(dz - one.derivative) <= 1e-9 * abs(one.derivative)


def test_origin_floor_guard():
    prob = schrodinger_problem(1.0, 1.0, Sector.MINUS)
    with pytest.raises(DomainError):
        integrate(prob, 1e-5, 1.0, 1.0 + 0j, 0j)
    with pytest.raises(DomainError):
        integrate(prob, 1.0, math.inf, 1.0 + 0j, 0j)


def test_max_steps_guard(monkeypatch):
    # the segment takes 8 steps
    monkeypatch.setattr(oracle, "MAX_STEPS", 4)
    prob = schrodinger_problem(2.0, 0.5, Sector.PLUS)
    with pytest.raises(MaxStepsExceeded):
        integrate(prob, 1.0, 25.0, 1.0 + 0j, 0j)


def test_step_underflow_guard():
    # a segment four ulps long: its one step is below 16 eps of sqrt(x)
    x1 = 1.0
    for _ in range(4):
        x1 = math.nextafter(x1, 2.0)
    with pytest.raises(StepSizeUnderflow, match="step underflow"):
        integrate(schrodinger_problem(1, 1, Sector.MINUS), 1.0, x1, 1, 0)


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
                f0 = oracle.frobenius_series_solution(a, 0.0, y)
                g0 = sf.chf_1f1(a, 0.5, y)
                fh = oracle.frobenius_series_solution(a, 0.5, y)
                gh = cmath.sqrt(y) * sf.chf_1f1(a + 0.5, 1.5, y)
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


def test_frobenius_guards(monkeypatch):
    with pytest.raises(InvalidParams):
        oracle.frobenius_series_solution(0.5j, 0.25, -2j)
    for a, y in ((complex(math.nan, 0.5), -2j), (0.5j, complex(0.0, math.inf))):
        with pytest.raises(InvalidParams):
            oracle.frobenius_series_solution(a, 0.0, y)
    monkeypatch.setattr(oracle, "FROBENIUS_MAX_TERMS", 5)
    with pytest.raises(NonConvergence):
        oracle.frobenius_series_solution(0.5j, 0.0, -20j)


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


@pytest.mark.parametrize("energy", [0.0, -1.0, math.nan, math.inf])
def test_residual_refuses_an_energy_that_is_not_positive_and_finite(energy):
    # the residual is relative to the energy: 0 divided by zero, and -1
    # returned a "relative residual" of -2
    with pytest.raises(InvalidParams, match="energy"):
        oracle.residual_schrodinger(np.sin, lambda xx: 0.0 * xx, energy,
                                    np.linspace(1.0, 2.0, 3))


def test_oracle_shares_no_code_with_the_closed_form():
    # the one structural rule: agreement between the oracle and the closed
    # form is evidence only while oracle imports none of the modules that
    # evaluate, extract or check the closed form; read from its source, so
    # imports inside functions count too
    banned = {"specfun", "highprec", "closedform", "scattering", "verify", "cli"}
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert {"_points", "errors", "potential", "decimal"} <= names
    assert not names & banned, sorted(names & banned)
