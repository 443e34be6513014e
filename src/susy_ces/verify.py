"""Self-contained verification suites over every layer of the package.

Each check pits two independent routes to the same quantity against
each other (series vs transformed series, closed form vs integrator,
analytic derivative vs finite difference, ...) and reduces the outcome
to a :class:`CheckReport`.  A report passes iff ``max_error <=
tolerance``; the optional ``tol_override`` argument substitutes every
check's tolerance, which is occasionally useful to see the actual error
landscape (or to confirm that failures propagate, by making it absurd).

All randomness is seeded: two runs of a suite see identical inputs.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from . import oracle, potential, scattering, specfun
from .errors import InvalidParams, NotConverged
from .potential import Sector

__all__ = ["CheckReport", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    details: str


def _report(name: str, max_error: float, tolerance: float, details: str) -> CheckReport:
    return CheckReport(name=name, passed=bool(max_error <= tolerance),
                       max_error=float(max_error), tolerance=float(tolerance),
                       details=details)


_PROBE_PARAMS = [(0.5j, 0.5), (1 + 0.5j, 1.5), (0.5 + 0.5j, 0.5),
                 (2j, 0.5), (1 + 1j, 2.5), (-0.3 + 0.2j, 1.2)]
_PROBE_Z = [-2j, -4j, -25j, -55j, 40j, 3 + 4j, -15 + 5j, 7.0, -12.0]


# ---------------------------------------------------------------------------
# specfun suite


def check_golden_table(tol: float = 1e-10) -> CheckReport:
    rows = specfun.load_golden_chf()
    worst = 0.0
    for r in rows:
        v = specfun.chf_1f1(specfun.CHFParams(r.a, r.b), r.z)
        worst = max(worst, abs(v - r.f) / max(1.0, abs(r.f)))
    return _report("specfun/golden-table", worst, tol,
                   f"{len(rows)} frozen reference values")


def check_kummer_consistency(tol: float = 1e-10) -> CheckReport:
    worst = 0.0
    n = 0
    for a, b in _PROBE_PARAMS:
        p = specfun.CHFParams(a, b)
        for z in _PROBE_Z:
            direct = specfun.chf_1f1(p, z)
            transf = specfun.kummer_transform(p, z)
            worst = max(worst, abs(direct - transf) / max(1.0, abs(direct)))
            n += 1
    return _report("specfun/kummer-consistency", worst, tol,
                   f"direct vs transformed series at {n} points")


def check_derivative_fd(tol: float = 1e-7) -> CheckReport:
    worst = 0.0
    h = 1e-6
    for a, b in _PROBE_PARAMS:
        p = specfun.CHFParams(a, b)
        for z in (-3j, -20j, 2 + 2j, -8 + 1j, 5.0):
            fd = (specfun.chf_1f1(p, z + h) - specfun.chf_1f1(p, z - h)) / (2 * h)
            an = specfun.chf_1f1_deriv(p, z)
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return _report("specfun/derivative-fd", worst, tol,
                   "analytic parameter-shift derivative vs central difference")


def check_loggamma_reflection(tol: float = 1e-10) -> CheckReport:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3:
            continue  # keep away from poles of both sides
        lhs = np.exp(specfun.log_gamma(z) + specfun.log_gamma(1.0 - z))
        rhs = math.pi / np.sin(math.pi * z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return _report("specfun/loggamma-reflection", worst, tol,
                   "exp(lg z + lg(1-z)) vs pi/sin(pi z), 200 random points")


def check_chf_wronskian(tol: float = 1e-9) -> CheckReport:
    # pair M(a,b;z) and z^{1-b} M(a-b+1, 2-b; z): Wronskian (1-b) z^{-b} e^z
    worst = 0.0
    for a, b in ((0.5j, 0.5), (1 + 1j, 2.5), (0.5 + 0.5j, 1.5), (2j, 0.5)):
        p1 = specfun.CHFParams(a, b)
        p2 = specfun.CHFParams(a - b + 1.0, 2.0 - b)
        for z in (-3j, -20j, -40j, 1 + 1j, -6 + 2j, 4.0):
            z = complex(z)
            f1 = specfun.chf_1f1(p1, z)
            d1 = specfun.chf_1f1_deriv(p1, z)
            f2r = specfun.chf_1f1(p2, z)
            d2r = specfun.chf_1f1_deriv(p2, z)
            zp = z ** (1.0 - b)
            f2 = zp * f2r
            d2 = zp * d2r + (1.0 - b) * zp / z * f2r
            wr = f1 * d2 - f2 * d1
            exact = (1.0 - b) * z ** (-b) * np.exp(z)
            worst = max(worst, abs(wr - exact) / max(1.0, abs(exact)))
    return _report("specfun/chf-wronskian", worst, tol,
                   "pair Wronskian vs (1-b) z^-b e^z")


def check_asymptotic_overlap(tol: float = 1e-9) -> CheckReport:
    worst = 0.0
    for a, b in _PROBE_PARAMS:
        p = specfun.CHFParams(a, b)
        for z in (-30j, -55j, 50j, 28 + 28j, -40 - 10j, -59j):
            val, _ = specfun.chf_asymptotic(p, z)
            ser = specfun.chf_1f1(p, z)
            worst = max(worst, abs(val - ser) / max(1.0, abs(ser)))
    return _report("specfun/asymptotic-overlap", worst, tol,
                   "large-|z| expansion vs series where both are viable")


# ---------------------------------------------------------------------------
# closedform suite

_FAMILIES = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))


def wronskian_grid(m: float, omega: float, n: int = 50) -> np.ndarray:
    """Log grid on which the Wronskian check is well conditioned.

    Inside the centrifugal barrier the two solutions grow like
    exp(4 m sqrt(x)) and the constant Wronskian is obtained by
    cancellation; double precision resolves it to 1e-8 only while
    exp(8 m sqrt(x)) < ~1e13.  The grid also stays inside the series
    bound 2 omega x <= 60.
    """
    hi = min(29.0 / omega, (3.6 / m) ** 2)
    lo = min(1e-6 / (m * m), hi / 100.0)
    return np.logspace(math.log10(lo), math.log10(hi), n)


def check_wronskian_constancy(tol: float = 1e-8) -> CheckReport:
    worst = 0.0
    for m, omega in _FAMILIES:
        p = cf.solution_params(m, omega)
        x = wronskian_grid(m, omega)
        for sec in Sector:
            wr = cf.wronskian_Z(p, sec, x)
            ex = cf.wronskian_exact(p, sec)
            worst = max(worst, float(np.max(np.abs(wr - ex)) / abs(ex)))
    return _report("closedform/wronskian-constancy", worst, tol,
                   "W[Z^I, Z^II] vs exact constant, 50 log points x 3 families x 2 sectors")


def check_intertwining(tol: float = 1e-8) -> CheckReport:
    worst = 0.0
    for m, omega in _FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.logspace(-2, math.log10(25.0 / omega), 40)
        wx = potential.superpotential(x, m)
        for br in cf.Branch:
            zp = cf.solution_Z(p, br, Sector.PLUS, x)
            zm = cf.solution_Z(p, br, Sector.MINUS, x)
            sc = np.maximum(1.0, np.abs(zp.value) + np.abs(zm.value))
            r1 = np.abs((zm.derivative + wx * zm.value) - 1j * omega * zp.value) / sc
            r2 = np.abs((zp.derivative - wx * zp.value) - 1j * omega * zm.value) / sc
            worst = max(worst, float(np.max(r1)), float(np.max(r2)))
    return _report("closedform/intertwining", worst, tol,
                   "(d/dx +- W) ladder maps between sectors with coefficient i omega")


def check_shape_invariance(tol: float = 0.0) -> CheckReport:
    worst = 0.0
    x = np.logspace(-8, 8, 10_000)
    for m in (1.0, 2.0, 0.5, 1.75, 0.3183098861837907):
        worst = max(worst, float(np.max(np.abs(potential.shape_invariance_gap(x, m)))))
    return _report("closedform/shape-invariance", worst, tol,
                   "V_plus(x, m) == V_minus(x, -m) bit-for-bit on 1e4-point log grid")


def series_components(p: cf.SolutionParams, branch: cf.Branch, x: np.ndarray):
    """Like :func:`closedform.components`, with the series derivatives, not the system's.

    A component r = c h s^{b-1/2} M(a, b; y) has the logarithmic derivative
    dy/dx (M'/M - 1/2 + (b/2 - 1/4)/y), with dy/dx = -2 i omega and
    M' = (a/b) M(a+1, b+1; y) from :func:`specfun.chf_1f1_deriv`.
    """
    y = cf.y_of_x(x, p.omega)
    r = cf.components(p, branch, x)[:2]
    if branch is cf.Branch.I:
        ab = ((p.a1, 0.5), (p.a1 + 1.0, 1.5))
    else:
        ab = ((p.a2, 1.5), (p.a2, 0.5))
    dr = []
    for ri, (a, b) in zip(r, ab):
        par = specfun.CHFParams(a, b)
        dlog = specfun.chf_1f1_deriv(par, y) / specfun.chf_1f1(par, y)
        dr.append(-2j * p.omega * ri * (dlog - 0.5 + (0.5 * b - 0.25) / y))
    return (*r, *dr)


def check_rtilde_system(tol: float = 1e-12) -> CheckReport:
    worst = 0.0
    for m, omega in _FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.logspace(-2, math.log10(20.0 / omega), 25)
        wx = potential.superpotential(x, m)
        for br in cf.Branch:
            r1, r2, d1, d2 = series_components(p, br, x)
            sc = np.maximum(1.0, np.abs(r1) + np.abs(r2))
            e1 = np.abs(d1 - 1j * omega * r1 - 1j * wx * r2) / sc
            e2 = np.abs(d2 + 1j * omega * r2 + 1j * wx * r1) / sc
            worst = max(worst, float(np.max(e1)), float(np.max(e2)))
    return _report("closedform/rtilde-system", worst, tol,
                   "series derivatives of the components satisfy the first-order system")


def check_hermite_lambda(tol: float = 2.0) -> CheckReport:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m = 10.0 ** rng.uniform(-1.5, 1.5)
        omega = 10.0 ** rng.uniform(-1.5, 1.5)
        p = cf.solution_params(m, omega)
        for j, a in ((1, p.a1), (2, p.a2)):
            lam = cf.hermite_lambda(p, j)
            ref = -4.0 * a
            du = abs(lam.imag - ref.imag) / max(np.spacing(abs(ref.imag)), 5e-324)
            du = max(du, abs(lam.real - ref.real) / max(np.spacing(max(abs(ref.real), 1.0)), 5e-324))
            worst = max(worst, float(du))
    return _report("closedform/hermite-lambda", worst, tol,
                   "lambda_j vs -4 a_j in ulps, 100 random (m, omega)")


def check_schrodinger_fd(tol: float = 1e-6) -> CheckReport:
    worst = 0.0
    for m, omega in ((1.0, 1.0),):
        p = cf.solution_params(m, omega)
        x = np.linspace(0.1, min(20.0, 29.0 / omega), 40)
        for br in cf.Branch:
            for sec in Sector:
                zf = lambda xx: cf.solution_Z(p, br, sec, xx).value
                vf = lambda xx: potential.V(xx, m, sec)
                res = oracle.residual_schrodinger(zf, vf, p.energy, x)
                worst = max(worst, float(np.max(res)))
    return _report("closedform/schrodinger-fd-residual", worst, tol,
                   "five-point stencil residual of the closed form, (m, omega) = (1, 1)")


def check_small_x_limit(tol: float = 1e-4) -> CheckReport:
    worst = 0.0
    x0 = 1e-10
    for m, omega in _FAMILIES:
        p = cf.solution_params(m, omega)
        for sec in Sector:
            zi = cf.solution_Z(p, cf.Branch.I, sec, x0)
            worst = max(worst, abs(complex(zi.value) - cf.PHASE_M4))
            zii = cf.solution_Z(p, cf.Branch.II, sec, x0)
            want = cf.PHASE_M4 * sec.sign * 1j * cf.coupling_constants(p, cf.Branch.II).c2
            worst = max(worst, abs(complex(zii.value) - want))
    return _report("closedform/small-x-limit", worst, tol,
                   "x -> 0 values of both branches at x = 1e-10")


def check_critical_structure(tol: float = 1e-12) -> CheckReport:
    worst = 0.0
    for m in (1.0, 2.0, 0.5, 3.25):
        cs = potential.critical_structure(m)
        worst = max(worst, abs(float(potential.V(cs.zero_x, m, Sector.MINUS))) / m ** 4)
        worst = max(worst, abs(float(potential.V_deriv(cs.max_x, m, Sector.MINUS))) / m ** 6)
        worst = max(worst, abs(float(potential.V(cs.max_x, m, Sector.MINUS)) - cs.max_value) / m ** 4)
    return _report("closedform/critical-structure", worst, tol,
                   "V_minus zero/maximum land on the closed-form landmarks")


# ---------------------------------------------------------------------------
# oracle suite


def check_free_wave(tol: float = 1e-8) -> CheckReport:
    w = 1.7
    q = lambda x: -(w * w)
    sol = oracle._integrate_rhs(q, 0.0, 25.0, (1.0 + 0j, 1j * w))
    err = abs(sol.value - cmath.exp(1j * w * 25.0))
    return _report("oracle/free-wave", err, tol,
                   f"exp(i w x) propagated over 25 units, {sol.n_steps} steps")


def check_convergence_order(tol: float = 0.0) -> CheckReport:
    w = 1.3
    q = lambda x: -(w * w)
    runs = []
    for rel_tol in (1e-6, 1e-9):
        s = oracle._integrate_rhs(q, 0.0, 10.0, (1.0 + 0j, 1j * w), rel_tol=rel_tol)
        runs.append((abs(s.value - cmath.exp(1j * w * 10.0)), s.n_steps))
    (e1, n1), (e2, n2) = runs
    # error ~ n^-p: the order is the slope of log error against log steps
    order = math.log(e1 / e2) / math.log(n2 / n1)
    return _report("oracle/convergence-order", max(0.0, 4.0 - order), tol,
                   f"empirical order {order:.2f} from adaptive runs at rel_tol "
                   f"1e-6 and 1e-9 (need >= 4)")


def check_ode_vs_closedform(tol: float = 1e-7) -> CheckReport:
    worst = 0.0
    p = cf.solution_params(1.0, 1.0)
    for br in cf.Branch:
        for sec in Sector:
            seed = cf.solution_Z(p, br, sec, 1.0)
            prob = oracle.schrodinger_problem(1.0, 1.0, sec)
            sol = oracle.integrate(prob, 1.0, 10.0, complex(seed.value),
                                   complex(seed.derivative))
            ref = cf.solution_Z(p, br, sec, 10.0)
            worst = max(worst,
                        abs(sol.value - complex(ref.value)) / max(1.0, abs(complex(ref.value))),
                        abs(sol.derivative - complex(ref.derivative)) / max(1.0, abs(complex(ref.derivative))))
    return _report("oracle/closedform-agreement", worst, tol,
                   "adaptive integration 1 -> 10 vs closed form, 4 branch/sector combos")


def check_frobenius(tol: float = 1e-12) -> CheckReport:
    worst = 0.0
    for m, omega in _FAMILIES + ((1.3, 0.7),):
        p = cf.solution_params(m, omega)
        for a in (p.a1, p.a2):
            for x in (0.3, 1.0, 5.0, 15.0):
                y = -2j * omega * x
                if abs(y) > specfun.SERIES_ZMAX:
                    continue
                f0 = oracle.frobenius_series_solution(a, 0.0, y)
                g0 = specfun.chf_1f1(specfun.CHFParams(a, 0.5), y)
                fh = oracle.frobenius_series_solution(a, 0.5, y)
                gh = cmath.sqrt(y) * specfun.chf_1f1(specfun.CHFParams(a + 0.5, 1.5), y)
                worst = max(worst, abs(f0 - g0) / max(1.0, abs(g0)),
                            abs(fh - gh) / max(1.0, abs(gh)))
    return _report("oracle/frobenius-agreement", worst, tol,
                   "ODE power series vs hypergeometric evaluator, both exponents")


# ---------------------------------------------------------------------------
# scattering suite


def check_offset_identity(tol: float = 1e-12) -> CheckReport:
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        wv = -(10.0 ** rng.uniform(-3.0, 1.0))
        om = 10.0 ** rng.uniform(-1.0, 1.0)
        d0 = rng.uniform(-1.5, 1.5)
        x = 40.0 / om
        um = math.sin(om * x + d0)
        dum = om * math.cos(om * x + d0)
        up = (dum + wv * um) / om
        dup = (-om * om * um + wv * dum) / om
        em = scattering.local_phase(0.0, om, x, um, dum).delta_raw
        ep = scattering.local_phase(0.0, om, x, up, dup).delta_raw
        gap = abs(math.remainder(2.0 * (em - ep) - scattering.susy_phase_offset(wv, om),
                                 2.0 * math.pi))
        worst = max(worst, gap)
    return _report("scattering/offset-identity", worst, tol,
                   "constant-superpotential sinusoid mapping vs closed-form offset")


def check_phase_difference(tol: float = 1e-3) -> CheckReport:
    runs = [scattering.phase_difference(m, omega) for m, omega in ((0.5, 2.0), (1.0, 2.0))]
    res = max(runs, key=lambda r: abs(r.estimate - 0.5 * math.pi))
    return _report("scattering/phase-difference-halfpi", abs(res.estimate - 0.5 * math.pi), tol,
                   f"worst of (m, omega) = (1/2, 2) and (1, 2) is ({res.m:g}, {res.omega:g}): "
                   f"estimate {res.estimate:.6f} at x = {res.x[-1]:.0f}")


SUITES: dict[str, tuple] = {
    "specfun": (check_golden_table, check_kummer_consistency, check_derivative_fd,
                check_loggamma_reflection, check_chf_wronskian, check_asymptotic_overlap),
    "closedform": (check_schrodinger_fd, check_wronskian_constancy, check_intertwining,
                   check_shape_invariance, check_rtilde_system, check_hermite_lambda,
                   check_small_x_limit, check_critical_structure),
    "oracle": (check_free_wave, check_convergence_order, check_ode_vs_closedform,
               check_frobenius),
    "scattering": (check_offset_identity, check_phase_difference),
}


def run_suite(suite: str, tol_override: float | None = None) -> list[CheckReport]:
    """Run one named suite (or ``all``); reports come back sorted by name."""
    if suite == "all":
        checks = [c for s in SUITES.values() for c in s]
    elif suite in SUITES:
        checks = list(SUITES[suite])
    else:
        raise InvalidParams(f"unknown suite {suite!r}; choose from "
                            f"{sorted(SUITES)} or 'all'")
    reports = []
    for chk in checks:
        try:
            rep = chk() if tol_override is None else chk(tol_override)
        except NotConverged as e:
            rep = _report(chk.__name__.replace("check_", "unconverged/"),
                          math.inf, tol_override if tol_override is not None else 0.0,
                          str(e))
        reports.append(rep)
    return sorted(reports, key=lambda r: r.name)
