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
from typing import NamedTuple

import numpy as np

from . import closedform as cf
from . import highprec, oracle, potential, scattering, specfun
from .errors import InvalidParams, NotConverged
from .potential import Sector

__all__ = ["CheckReport", "SUITES", "run_suite"]


class CheckReport(NamedTuple):
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
        v = specfun.chf_1f1(r.a, r.b, r.z)
        worst = max(worst, abs(v - r.f) / max(1.0, abs(r.f)))
    return _report("specfun/golden-table", worst, tol,
                   f"{len(rows)} frozen reference values")


def check_kummer_consistency(tol: float = 1e-10) -> CheckReport:
    worst = 0.0
    n = 0
    for a, b in _PROBE_PARAMS:
        for z in _PROBE_Z:
            direct = specfun.chf_1f1(a, b, z)
            transf = specfun.kummer_transform(a, b, z)
            worst = max(worst, abs(direct - transf) / max(1.0, abs(direct)))
            n += 1
    return _report("specfun/kummer-consistency", worst, tol,
                   f"direct vs transformed series at {n} points")


def check_derivative_fd(tol: float = 1e-7) -> CheckReport:
    worst = 0.0
    h = 1e-6
    for a, b in _PROBE_PARAMS:
        for z in (-3j, -20j, 2 + 2j, -8 + 1j, 5.0):
            fd = (specfun.chf_1f1(a, b, z + h) - specfun.chf_1f1(a, b, z - h)) / (2 * h)
            an = specfun.chf_1f1_deriv(a, b, z)
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
        a2, b2 = a - b + 1.0, 2.0 - b
        for z in (-3j, -20j, -40j, 1 + 1j, -6 + 2j, 4.0):
            z = complex(z)
            f1 = specfun.chf_1f1(a, b, z)
            d1 = specfun.chf_1f1_deriv(a, b, z)
            f2r = specfun.chf_1f1(a2, b2, z)
            d2r = specfun.chf_1f1_deriv(a2, b2, z)
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
        for z in (-30j, -55j, 50j, 28 + 28j, -40 - 10j, -59j):
            val, _ = specfun.chf_asymptotic(a, b, z)
            ser = specfun.chf_1f1(a, b, z)
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
            zp, zm = _series_Z(p, br, (Sector.PLUS, Sector.MINUS), x)
            sc = np.maximum(1.0, np.abs(zp.value) + np.abs(zm.value))
            r1 = np.abs((zm.derivative + wx * zm.value) - 1j * omega * zp.value) / sc
            r2 = np.abs((zp.derivative - wx * zp.value) - 1j * omega * zm.value) / sc
            worst = max(worst, float(np.max(r1)), float(np.max(r2)))
    return _report("closedform/intertwining", worst, tol,
                   "(d/dx +- W) ladder maps between sectors with coefficient i omega, "
                   "series derivatives")


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
        dlog = specfun.chf_1f1_deriv(a, b, y) / specfun.chf_1f1(a, b, y)
        dr.append(-2j * p.omega * ri * (dlog - 0.5 + (0.5 * b - 0.25) / y))
    return (*r, *dr)


def series_solution_Z(p: cf.SolutionParams, branch: cf.Branch, sector: Sector,
                      x: np.ndarray) -> cf.SolutionSample:
    """:func:`closedform.solution_Z` with the derivative of :func:`series_components`.

    The value is the closed form's, bit for bit; the derivative does not
    come from the first-order system, so relations that the system implies
    hold only as far as the components really solve it.
    """
    return _series_Z(p, branch, (sector,), x)[0]


def _series_Z(p: cf.SolutionParams, branch: cf.Branch, sectors: tuple[Sector, ...],
              x: np.ndarray) -> list[cf.SolutionSample]:
    """:func:`series_solution_Z` in each of ``sectors``, from one :func:`series_components`."""
    _, _, d1, d2 = series_components(p, branch, x)
    return [cf.SolutionSample(x, cf.solution_Z(p, branch, sec, x).value,
                              cf.PHASE_M4 * (d1 + 1j * sec.sign * d2)) for sec in sectors]


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


def check_grid_continuation(tol: float = 0.0) -> CheckReport:
    worst = 0.0
    points = continued = seeds = steps = terms = evals = sums = 0
    for m, omega in _FAMILIES:
        p = cf.solution_params(m, omega)
        hi = 29.5 / omega
        for x in (np.linspace(hi / 64, hi, 64), np.logspace(-4, math.log10(hi), 64)):
            s = np.unique(-cf.y_of_x(x, omega).imag).tolist()
            xs = x.tolist()
            grid = cf._components(p, tuple(cf.Branch), xs)
            for i, xi in enumerate(xs):
                for (lone,), rows in zip(cf._components(p, tuple(cf.Branch), [xi]), grid):
                    worst = max(worst, *(abs(a - b) for a, b in zip(lone, rows[i])))
            walk = highprec.kummer_walk(p.a1.imag, s)
            points += len(s)
            continued += walk.continued
            seeds += walk.seeds
            steps += walk.steps
            terms += walk.terms
            evals += walk.evals
            sums += walk.sums
    return _report("closedform/grid-continuation", worst, tol,
                   f"grid vs lone-point components of both branches, bit for bit, 3 families "
                   f"x linear and log grids of 64; one walk of the pair per grid serves "
                   f"both branches: {continued} of {points} points "
                   f"continued, {points - continued} fall back to the series ({seeds} seeds); "
                   f"{steps} Taylor expansions of {terms / max(steps, 1):.1f} terms, "
                   f"{(continued - seeds) / max(steps, 1):.1f} points each, "
                   f"{evals} terms evaluated inside their reach; {sums} series loops")


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
        zs = {}   # stencil grid -> Z of each branch and sector, from one walk

        def z_all(xx):
            key = xx.tobytes()
            if key not in zs:
                sols = cf._solution(p, tuple(cf.Branch), tuple(Sector), xx.tolist())
                zs[key] = {(br, sec): np.array(z) for br, per_branch in zip(cf.Branch, sols)
                           for sec, (z, _) in zip(Sector, per_branch)}
            return zs[key]

        for br in cf.Branch:
            for sec in Sector:
                zf = lambda xx: z_all(xx)[br, sec]
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
    sol = oracle._integrate_rhs((0.0, 0.0, w * w), 1.0, 25.0, (1.0 + 0j, 1j * w))
    err = abs(sol.value - cmath.exp(1j * w * (25.0 - 1.0)))
    return _report("oracle/free-wave", err, tol,
                   f"exp(i w (x - 1)) propagated from x = 1 to 25, {sol.n_steps} steps")


def check_convergence_order(tol: float = 0.0) -> CheckReport:
    w, s0 = 1.3, 5.0
    errs, hs = [], []
    # single free-wave steps of 7 and 5.6 radians from x = 25, whose
    # truncation errors (~4e-8 and ~4e-11) stand far above rounding; the
    # wave's real and imaginary parts take one step each
    for phase in (7.0, 5.6):
        x1 = (s0 + phase / (2.0 * w * s0)) ** 2
        s = oracle._integrate_rhs((0.0, 0.0, w * w), s0 * s0, x1, (1.0 + 0j, 1j * w),
                                  rel_tol=1e-3)
        errs.append(abs(s.value - cmath.exp(1j * w * (x1 - s0 * s0)))
                    if (s.n_steps, s.n_rejected) == (2, 0) else math.nan)
        hs.append(math.sqrt(x1) - s0)
    # error ~ h^(p+1) for a method of order p, h the step in sqrt(x)
    order = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1]) - 1.0
    # the kernel's degree to within half an order; a NaN order (a step
    # rejected or split) fails the check
    miss = abs(order - oracle.ORDER)
    return _report("oracle/convergence-order", 0.0 if miss <= 0.5 else miss - 0.5, tol,
                   f"empirical order {order:.2f} from single steps of 7 and 5.6 "
                   f"radians (need {oracle.ORDER} +- 0.5)")


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
                f0 = oracle.frobenius_series_solution(a, 0.0, y)
                g0 = specfun.chf_1f1(a, 0.5, y)
                fh = oracle.frobenius_series_solution(a, 0.5, y)
                gh = cmath.sqrt(y) * specfun.chf_1f1(a + 0.5, 1.5, y)
                worst = max(worst, abs(f0 - g0) / max(1.0, abs(g0)),
                            abs(fh - gh) / max(1.0, abs(gh)))
    return _report("oracle/frobenius-agreement", worst, tol,
                   "ODE power series vs hypergeometric evaluator, both exponents")


# ---------------------------------------------------------------------------
# scattering suite


def check_offset_identity(tol: float = 1e-12) -> CheckReport:
    # |W|/omega from 1e-12 to 1e2: the ladder's rungs reach 5.6e-11 at (1e-9, 1)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        om = 10.0 ** rng.uniform(-1.0, 1.0)
        wv = -om * 10.0 ** rng.uniform(-12.0, 2.0)
        d0 = rng.uniform(-1.5, 1.5)
        x = 40.0 / om
        um = math.sin(om * x + d0)
        dum = om * math.cos(om * x + d0)
        up = (dum + wv * um) / om
        dup = (-om * om * um + wv * dum) / om
        d = scattering._sector_difference(um, dum, up, dup, om)
        gap = abs(math.remainder(2.0 * d - scattering.susy_phase_offset(wv, om), 2.0 * math.pi))
        worst = max(worst, gap)
    return _report("scattering/offset-identity", worst, tol,
                   "constant-superpotential sinusoid mapping, read by the rung ratio, vs offset")


def check_phase_difference(tol: float = 1e-3) -> CheckReport:
    runs = [scattering.phase_difference(m, omega) for m, omega in ((0.5, 2.0), (1.0, 2.0))]
    res = max(runs, key=lambda r: abs(r.estimate - 0.5 * math.pi))
    return _report("scattering/phase-difference-halfpi", abs(res.estimate - 0.5 * math.pi), tol,
                   f"worst of (m, omega) = (1/2, 2) and (1, 2) is ({res.m:g}, {res.omega:g}): "
                   f"estimate {res.estimate:.6f} at x = {res.x[-1]:.0f}")


def _seed_point(x_match: float, omega: float) -> float:
    """x_match, or the largest x with |y| = 2 omega x inside the series range.

    The 4 eps margin keeps the rounded |y| at or below SERIES_ZMAX.
    """
    return min(x_match, (1.0 - 4.0 * 2.0 ** -52) * specfun.SERIES_ZMAX / (2.0 * omega))


def check_ladder_sectors_agree(tol: float = 1e-8) -> CheckReport:
    # the ladder carries MINUS alone and reads PLUS through the SUSY map;
    # here both are integrated, PLUS from the mapped seed, and must match
    rungs = 8
    worst = 0.0
    for m, omega in ((0.5, 2.0), (1.0, 2.0)):
        p = cf.solution_params(m, omega)
        x_match = scattering.default_x_match(m, omega)
        zm = cf.solution_Z(p, cf.Branch.I, Sector.MINUS, _seed_point(x_match, omega))
        zp = cf.susy_map(p, zm, Sector.MINUS)
        probs = [oracle.schrodinger_problem(m, omega, sec) for sec in (Sector.MINUS, Sector.PLUS)]
        for k in range(1, rungs + 1):
            xk = math.ldexp(x_match, k)
            sols = [oracle.integrate(prob, z.x, xk, z.value, z.derivative)
                    for prob, z in zip(probs, (zm, zp))]
            zm, zp = (cf.SolutionSample(xk, s.value, s.derivative) for s in sols)
            mapped = cf.susy_map(p, zm, Sector.MINUS)
            size = abs(mapped.value) + abs(mapped.derivative) / omega
            worst = max(worst, abs(zp.value - mapped.value) / size,
                        abs(zp.derivative - mapped.derivative) / omega / size)
    return _report("scattering/ladder-sectors-agree", worst, tol,
                   f"PLUS integrated from the mapped seed vs the SUSY map of the MINUS "
                   f"integration, value and derivative/omega, {rungs} ladder rungs at "
                   f"(m, omega) = (1/2, 2) and (1, 2)")


def check_ladder_routes_agree(tol: float = 1e-8) -> CheckReport:
    # the ladder reads its rungs from the closed form's large-|y| expansion;
    # here the integrator carries the real part of the seed out to the same
    # rungs, and the two MINUS samples must match.  At (8, 1) the base is
    # the expansion's frontier term 0.275 eta^2/omega
    worst = 0.0
    for m, omega, rungs in ((0.5, 2.0, 8), (1.0, 2.0, 8), (3.0, 0.5, 10), (8.0, 1.0, 4)):
        p = cf.solution_params(m, omega)
        x_match = scattering.default_x_match(m, omega)
        seed = cf.solution_Z(p, cf.Branch.I, Sector.MINUS, _seed_point(x_match, omega))
        x, u, du = seed.x, complex(seed.value.real), complex(seed.derivative.real)
        prob = oracle.schrodinger_problem(m, omega, Sector.MINUS)
        pair = specfun.asymptotic_pair_for(p.a1.imag)
        for k in range(1, rungs + 1):
            xk = math.ldexp(x_match, k)
            sol = oracle.integrate(prob, x, xk, u, du)
            x, u, du = xk, sol.value, sol.derivative
            far = scattering._far_sample(p, xk, pair)
            size = abs(far.value) + abs(far.derivative) / omega
            worst = max(worst, abs(u - far.value) / size,
                        abs(du - far.derivative) / omega / size)
    return _report("scattering/ladder-routes-agree", worst, tol,
                   "MINUS integrated from the seed vs the large-|y| closed form the ladder "
                   "reads, value and derivative/omega, 8 rungs at (m, omega) = (1/2, 2) "
                   "and (1, 2), 10 at (3, 1/2) out to x = 92160, 4 at (8, 1)")


SUITES: dict[str, tuple] = {
    "specfun": (check_golden_table, check_kummer_consistency, check_derivative_fd,
                check_loggamma_reflection, check_chf_wronskian, check_asymptotic_overlap),
    "closedform": (check_schrodinger_fd, check_wronskian_constancy, check_intertwining,
                   check_shape_invariance, check_rtilde_system, check_grid_continuation,
                   check_hermite_lambda, check_small_x_limit, check_critical_structure),
    "oracle": (check_free_wave, check_convergence_order, check_ode_vs_closedform,
               check_frobenius),
    "scattering": (check_offset_identity, check_phase_difference, check_ladder_sectors_agree,
                   check_ladder_routes_agree),
}


def run_suite(suite: str, tol_override: float | None = None) -> list[CheckReport]:
    """Run one named suite (or ``all``); reports come back sorted by name.

    ``tol_override`` must be finite and >= 0 (0 is a tolerance several
    checks use by design); anything else raises InvalidParams rather than
    failing every check.
    """
    if tol_override is not None and not 0.0 <= tol_override < math.inf:
        raise InvalidParams(f"tol_override={tol_override!r} must be finite and >= 0")
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
