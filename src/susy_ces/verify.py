"""Self-contained verification suites over every layer of the package.

Each check pits two independent routes to the same quantity against
each other (series vs transformed series, closed form vs integrator,
analytic derivative vs finite difference, ...) and reduces the outcome
to a :class:`CheckReport`.  A report passes iff ``max_error <=
tolerance``, each check's tolerance being fixed in the check itself;
every report carries its ``max_error``, pass or fail.

All randomness is seeded: two runs of a suite see identical inputs.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import closedform as cf
from . import highprec, oracle, potential, scattering, specfun
from ._points import flat, shaped
from .errors import InvalidParams, SeriesRangeExceeded
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


def check_golden_table() -> CheckReport:
    rows = specfun.load_golden_chf()
    worst = 0.0
    for r in rows:
        v = specfun.chf_1f1(r.a, r.b, r.z)
        worst = max(worst, abs(v - r.f) / max(1.0, abs(r.f)))
    return _report("specfun/golden-table", worst, 1e-10,
                   f"{len(rows)} frozen reference values")


def check_kummer_consistency() -> CheckReport:
    worst = 0.0
    n = 0
    for a, b in _PROBE_PARAMS:
        for z in _PROBE_Z:
            direct = specfun.chf_1f1(a, b, z)
            transf = specfun.kummer_transform(a, b, z)
            worst = max(worst, abs(direct - transf) / max(1.0, abs(direct)))
            n += 1
    return _report("specfun/kummer-consistency", worst, 1e-10,
                   f"direct vs transformed series at {n} points")


def check_derivative_fd() -> CheckReport:
    worst = 0.0
    h = 1e-6
    for a, b in _PROBE_PARAMS:
        for z in (-3j, -20j, 2 + 2j, -8 + 1j, 5.0):
            fd = (specfun.chf_1f1(a, b, z + h) - specfun.chf_1f1(a, b, z - h)) / (2 * h)
            an = specfun.chf_1f1_deriv(a, b, z)
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return _report("specfun/derivative-fd", worst, 1e-7,
                   "analytic parameter-shift derivative vs central difference")


def check_loggamma_reflection() -> CheckReport:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3:
            continue  # keep away from poles of both sides
        lhs = np.exp(specfun.log_gamma(z) + specfun.log_gamma(1.0 - z))
        rhs = math.pi / np.sin(math.pi * z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return _report("specfun/loggamma-reflection", worst, 1e-10,
                   "exp(lg z + lg(1-z)) vs pi/sin(pi z), 200 random points")


def check_chf_wronskian() -> CheckReport:
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
    return _report("specfun/chf-wronskian", worst, 1e-9,
                   "pair Wronskian vs (1-b) z^-b e^z")


def check_asymptotic_overlap() -> CheckReport:
    # the pair the ladder reads past the series range, against the exact
    # series walk inside it and past it
    etas, ss = (0.025, 0.5, 1.0, 2.0, 4.0), (40.0, 59.0, 100.0, 250.0, 500.0)
    worst, n = 0.0, 0
    for eta in etas:
        pair = specfun.asymptotic_pair_for(eta)
        for s in ss:
            try:
                (p,), (q,) = pair(eta, [s])
            except SeriesRangeExceeded:   # refused: not compared
                continue
            walk = highprec.kummer_walk(eta, [s])
            for got, want in ((p, walk.p[0]), (q, walk.q[0])):
                worst = max(worst, abs(got - want) / abs(want))
                n += 1
    # a pair that refused every value has not passed
    return _report("specfun/asymptotic-overlap", worst if n else math.inf, 1e-9,
                   f"large-|y| pair (asymptotic_pair_for) vs the series walk (kummer_walk): "
                   f"{n} of {2 * len(etas) * len(ss)} values compared; P and Q at eta in "
                   f"{etas}, s in {ss}")


# ---------------------------------------------------------------------------
# closedform suite

_FAMILIES = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))


def wronskian_grid(m: float, omega: float) -> np.ndarray:
    """50-point log grid on which the Wronskian check is well conditioned.

    Inside the centrifugal barrier the two solutions grow like
    exp(4 m sqrt(x)) and the constant Wronskian is obtained by
    cancellation; double precision resolves it to 1e-8 only while
    exp(8 m sqrt(x)) < ~1e13.  The grid also stays inside the series
    bound 2 omega x <= 60.
    """
    hi = min(29.0 / omega, (3.6 / m) ** 2)
    lo = min(1e-6 / (m * m), hi / 100.0)
    return np.logspace(math.log10(lo), math.log10(hi), 50)


def check_wronskian_constancy() -> CheckReport:
    worst = 0.0
    for m, omega in _FAMILIES:
        p = cf.solution_params(m, omega)
        x = wronskian_grid(m, omega)
        for sec in Sector:
            wr = cf.wronskian_Z(p, sec, x)
            ex = cf.wronskian_exact(p, sec)
            worst = max(worst, float(np.max(np.abs(wr - ex)) / abs(ex)))
    return _report("closedform/wronskian-constancy", worst, 1e-8,
                   "W[Z^I, Z^II] vs exact constant, 50 log points x 3 families x 2 sectors")


def check_intertwining() -> CheckReport:
    worst = 0.0
    for m, omega in _FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.logspace(-2, math.log10(25.0 / omega), 40)
        for br in cf.Branch:
            zp, zm = _series_Z(p, br, (Sector.PLUS, Sector.MINUS), x)
            sc = np.maximum(1.0, np.abs(zp.value) + np.abs(zm.value))
            r1 = np.abs(cf.susy_map(p, zm, Sector.MINUS).value - zp.value) / sc
            r2 = np.abs(cf.susy_map(p, zp, Sector.PLUS).value - zm.value) / sc
            worst = max(worst, float(np.max(r1)), float(np.max(r2)))
    return _report("closedform/intertwining", worst, 1e-8,
                   "closedform.susy_map of each sector's series sample vs the partner "
                   "sector's, series derivatives")


def check_shape_invariance() -> CheckReport:
    worst = 0.0
    x = np.logspace(-8, 8, 10_000)
    for m in (1.0, 2.0, 0.5, 1.75, 0.3183098861837907):
        worst = max(worst, float(np.max(np.abs(potential.shape_invariance_gap(x, m)))))
    return _report("closedform/shape-invariance", worst, 0.0,
                   "V_plus(x, m) == V_minus(x, -m) bit-for-bit on 1e4-point log grid")


def series_components(p: cf.SolutionParams, branch: cf.Branch, x: np.ndarray):
    """Like :func:`closedform.components`, with the series derivatives, not the system's.

    A component r = c h s^{b-1/2} M(a, b; y) has the logarithmic derivative
    dy/dx (M'/M - 1/2 + (b/2 - 1/4)/y), with dy/dx = -2 i omega and
    M' = (a/b) M(a+1, b+1; y) from :func:`specfun.chf_1f1_deriv`.
    """
    y = cf.y_of_x(x, p.omega)
    ys, shape = flat(y, complex)
    r = cf.components(p, branch, x)[:2]
    if branch is cf.Branch.I:
        ab = ((p.a1, 0.5), (p.a1 + 1.0, 1.5))
    else:
        ab = ((p.a2, 1.5), (p.a2, 0.5))
    dr = []
    for ri, (a, b) in zip(r, ab):
        # point by point in Python complex, so a point's bits do not depend on the grid
        cols = [flat(c, complex)[0] for c in (ri, specfun.chf_1f1_deriv(a, b, y),
                                              specfun.chf_1f1(a, b, y))]
        dr.append(shaped([-2j * p.omega * rv * (dm / mv - 0.5 + (0.5 * b - 0.25) / yv)
                          for rv, dm, mv, yv in zip(*cols, ys)], shape, complex))
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
    """:func:`series_solution_Z` in each of ``sectors``, all from one :func:`series_components`.

    Each sector is assembled by :func:`closedform.solution_Z`'s own code, so
    the values' bits are the same.
    """
    (c1, shape), (c2, _), (e1, _), (e2, _) = (flat(c, complex)
                                               for c in series_components(p, branch, x))
    return [cf.SolutionSample(x, shaped(z, shape, complex), shaped(dz, shape, complex))
            for z, dz in cf._sectors(p, list(zip(c1, c2, e1, e2)), sectors)]


def check_rtilde_system() -> CheckReport:
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
    return _report("closedform/rtilde-system", worst, 1e-12,
                   "series derivatives of the components satisfy the first-order system")


def check_grid_continuation() -> CheckReport:
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
    return _report("closedform/grid-continuation", worst, 0.0,
                   f"grid vs lone-point components of both branches, bit for bit, 3 families "
                   f"x linear and log grids of 64; one walk of the pair per grid serves "
                   f"both branches: {continued} of {points} points "
                   f"continued, {points - continued} fall back to the series ({seeds} seeds); "
                   f"{steps} Taylor expansions of {terms / max(steps, 1):.1f} terms, "
                   f"{(continued - seeds) / max(steps, 1):.1f} points each, "
                   f"{evals} terms evaluated inside their reach; {sums} series loops")


def check_hermite_lambda() -> CheckReport:
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
    return _report("closedform/hermite-lambda", worst, 2.0,
                   "lambda_j vs -4 a_j in ulps, 100 random (m, omega)")


def check_schrodinger_fd() -> CheckReport:
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
    return _report("closedform/schrodinger-fd-residual", worst, 1e-6,
                   "five-point stencil residual of the closed form, (m, omega) = (1, 1)")


def check_small_x_limit() -> CheckReport:
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
    return _report("closedform/small-x-limit", worst, 1e-4,
                   "x -> 0 values of both branches at x = 1e-10")


def check_critical_structure() -> CheckReport:
    worst = 0.0
    for m in (1.0, 2.0, 0.5, 3.25):
        cs = potential.critical_structure(m)
        worst = max(worst, abs(float(potential.V(cs.zero_x, m, Sector.MINUS))) / m ** 4)
        worst = max(worst, abs(float(potential.V_deriv(cs.max_x, m, Sector.MINUS))) / m ** 6)
        worst = max(worst, abs(float(potential.V(cs.max_x, m, Sector.MINUS)) - cs.max_value) / m ** 4)
    return _report("closedform/critical-structure", worst, 1e-12,
                   "V_minus zero/maximum land on the closed-form landmarks")


# ---------------------------------------------------------------------------
# oracle suite


def check_free_wave() -> CheckReport:
    w = 1.7
    sol = oracle._integrate_rhs((0.0, 0.0, w * w), 1.0, 25.0, (1.0 + 0j, 1j * w))
    err = abs(sol.value - cmath.exp(1j * w * (25.0 - 1.0)))
    return _report("oracle/free-wave", err, 1e-8,
                   f"exp(i w (x - 1)) propagated from x = 1 to 25, {sol.n_steps} steps")


def check_convergence_order() -> CheckReport:
    w, s0 = 1.3, 5.0
    errs, hs = [], []
    # single free-wave steps of 7 and 5.6 radians from x = 25, whose
    # truncation errors (~4e-8 and ~4e-11) stand far above rounding; the
    # wave's real and imaginary parts take one step each
    for phase in (7.0, 5.6):
        x1 = (s0 + phase / (2.0 * w * s0)) ** 2
        h = math.sqrt(x1) - s0
        re, im = (oracle._taylor_step(0.0, 0.0, w * w, s0, h, u, us)[0]
                  for u, us in ((1.0, 0.0), (0.0, 2.0 * s0 * w)))
        errs.append(abs(complex(re, im) - cmath.exp(1j * w * (x1 - s0 * s0))))
        hs.append(h)
    # error ~ h^(p+1) for a method of order p, h the step in sqrt(x)
    order = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1]) - 1.0
    # the kernel's degree to within half an order
    miss = abs(order - oracle.ORDER)
    return _report("oracle/convergence-order", 0.0 if miss <= 0.5 else miss - 0.5, 0.0,
                   f"empirical order {order:.2f} from single steps of 7 and 5.6 "
                   f"radians (need {oracle.ORDER} +- 0.5)")


def check_ode_vs_closedform() -> CheckReport:
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
    return _report("oracle/closedform-agreement", worst, 1e-7,
                   "adaptive integration 1 -> 10 vs closed form, 4 branch/sector combos")


def check_frobenius() -> CheckReport:
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
    return _report("oracle/frobenius-agreement", worst, 1e-12,
                   "ODE power series vs hypergeometric evaluator, both exponents")


# ---------------------------------------------------------------------------
# scattering suite


def check_offset_identity() -> CheckReport:
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
        d = scattering._sector_difference(um, dum / om, up, dup / om)
        gap = abs(math.remainder(2.0 * d - scattering.susy_phase_offset(wv, om), 2.0 * math.pi))
        worst = max(worst, gap)
    return _report("scattering/offset-identity", worst, 1e-12,
                   "constant-superpotential sinusoid mapping, read by the rung ratio, vs offset")


def check_phase_difference() -> CheckReport:
    runs = [scattering.phase_difference(m, omega) for m, omega in ((0.5, 2.0), (1.0, 2.0))]
    res = max(runs, key=lambda r: abs(r.estimate - 0.5 * math.pi))
    return _report("scattering/phase-difference-halfpi", abs(res.estimate - 0.5 * math.pi), 1e-3,
                   f"worst of (m, omega) = (1/2, 2) and (1, 2) is ({res.m:g}, {res.omega:g}): "
                   f"estimate {res.estimate:.6f} at x = {res.x[-1]:.0f}, {res.x.size} rungs, "
                   f"bound {res.bound:.2e}")


def _seed_point(x_match: float, omega: float) -> float:
    """x_match, or the largest x with |y| = 2 omega x inside the series range.

    The 4 eps margin keeps the rounded |y| at or below SERIES_ZMAX.
    """
    return min(x_match, (1.0 - 4.0 * 2.0 ** -52) * specfun.SERIES_ZMAX / (2.0 * omega))


def check_ladder_routes_agree() -> CheckReport:
    # the ladder reads its rungs from the closed form's large-|y| expansion;
    # here the integrator carries the real MINUS seed u and its real SUSY
    # image v = (u' + W u)/omega, under PLUS, out to the same rungs, where
    # (u, u'/omega, v, v'/omega) must match the ladder's sample and v the
    # image of the integrated u.  At (8, 1) the base is the expansion's
    # frontier term 0.275 eta^2/omega
    worst = {"u": 0.0, "v": 0.0, "map": 0.0}
    for m, omega, rungs in ((0.5, 2.0, 8), (1.0, 2.0, 8), (3.0, 0.5, 10), (8.0, 1.0, 4)):
        p = cf.solution_params(m, omega)
        x_match = scattering.default_x_match(m, omega)
        seed = cf.solution_Z(p, cf.Branch.I, Sector.MINUS, _seed_point(x_match, omega))
        x, u, du = seed.x, seed.value.real, seed.derivative.real
        wx = -m / math.sqrt(x)
        v = (du + wx * u) / omega
        dv = wx * v - omega * u
        minus, plus = (oracle.schrodinger_problem(m, omega, sec)
                       for sec in (Sector.MINUS, Sector.PLUS))
        pair = specfun.asymptotic_pair_for(p.a1.imag)
        for k in range(1, rungs + 1):
            xk = math.ldexp(x_match, k)
            su = oracle.integrate(minus, x, xk, u, du)
            sv = oracle.integrate(plus, x, xk, v, dv)
            x, wx = xk, -m / math.sqrt(xk)
            u, du, v, dv = su.value.real, su.derivative.real, sv.value.real, sv.derivative.real
            fu, fdu, fv, fdv = cf._ladder_sample(p, xk, wx / omega, pair)
            size_u, size_v = abs(fu) + abs(fdu), abs(fv) + abs(fdv)
            worst["u"] = max(worst["u"], abs(u - fu) / size_u, abs(du / omega - fdu) / size_u)
            worst["v"] = max(worst["v"], abs(v - fv) / size_v, abs(dv / omega - fdv) / size_v)
            worst["map"] = max(worst["map"], abs(v - (du + wx * u) / omega) / size_v)
    return _report("scattering/ladder-routes-agree", max(worst.values()), 1e-8,
                   "MINUS u integrated from the seed and PLUS v from its SUSY image vs the "
                   "large-|y| closed form the ladder reads, value and derivative/omega "
                   f"(u {worst['u']:.2e}, v {worst['v']:.2e}), and v vs the image "
                   f"(u' + W u)/omega of the integrated u ({worst['map']:.2e}); 8 rungs at "
                   "(m, omega) = (1/2, 2) and (1, 2), 10 at (3, 1/2) out to x = 92160, "
                   "4 at (8, 1)")


SUITES: dict[str, tuple] = {
    "specfun": (check_golden_table, check_kummer_consistency, check_derivative_fd,
                check_loggamma_reflection, check_chf_wronskian, check_asymptotic_overlap),
    "closedform": (check_schrodinger_fd, check_wronskian_constancy, check_intertwining,
                   check_shape_invariance, check_rtilde_system, check_grid_continuation,
                   check_hermite_lambda, check_small_x_limit, check_critical_structure),
    "oracle": (check_free_wave, check_convergence_order, check_ode_vs_closedform,
               check_frobenius),
    "scattering": (check_offset_identity, check_phase_difference, check_ladder_routes_agree),
}


def run_suite(suite: str) -> list[CheckReport]:
    """Run one named suite (or ``all``); reports come back sorted by name."""
    if suite == "all":
        checks = [c for s in SUITES.values() for c in s]
    elif suite in SUITES:
        checks = list(SUITES[suite])
    else:
        raise InvalidParams(f"unknown suite {suite!r}; choose from "
                            f"{sorted(SUITES)} or 'all'")
    return sorted((chk() for chk in checks), key=lambda r: r.name)
