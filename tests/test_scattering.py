"""Phase extraction, the phase-difference ladder, and the closed-form offset."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from susy_ces import closedform as cf
from susy_ces import scattering as sc
from susy_ces import specfun
from susy_ces.closedform import solution_params
from susy_ces.errors import DoubleRangeExceeded, InvalidParams
from susy_ces.potential import Sector, superpotential
from susy_ces.scattering import phase_difference, susy_phase_offset
from susy_ces.specfun import SERIES_ZMAX, asymptotic_pair_for

HALF_PI = 0.5 * math.pi
#: a rung's own rounding, which its bound does not cover: at most 2.2 eps
#: measured, and at m^2/omega = 3e20 the one rung read is 1 ulp from pi/2
ROUNDING = 4 * 2.0 ** -52


def test_default_x_match_values():
    assert sc.default_x_match(1.0, 1.0) == 20.0
    assert sc.default_x_match(0.5, 2.0) == 10.0
    assert sc.default_x_match(2.0, 0.5) == 40.0
    # m^2/omega = 36 is still 2.5 m^2/omega^2; from 64 on the first rung
    # sits at |y| = 4 omega x_match = 1.1 eta^2
    assert sc.default_x_match(6.0, 1.0) == 90.0
    for m, omega in ((8.0, 1.0), (10.0, 1.0), (1e3, 1.0), (20.0, 0.5)):
        eta = 0.5 * m * m / omega
        assert math.isclose(4.0 * omega * sc.default_x_match(m, omega), 1.1 * eta * eta,
                            rel_tol=1e-15)


def test_phase_config_validation():
    # the bound does not cover a rung's own rounding, a few eps: at (3e-9, 2)
    # a tol of 2e-20 stopped 1 ulp outside a bound of 1.4e-20
    for tol in (0.0, -1.0, math.nan, 2e-20, sc.TOL_FLOOR):
        with pytest.raises(InvalidParams, match=r"TOL_FLOOR = 2\^-40 = 9\.095e-13"):
            phase_difference(3e-9, 2.0, tol=tol)
    res = phase_difference(3e-9, 2.0, tol=2.0 * sc.TOL_FLOOR)
    assert abs(res.estimate - HALF_PI) <= res.bound + ROUNDING < 2.0 * sc.TOL_FLOOR


def test_keywords_are_checked_before_any_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran before the keywords were checked")

    monkeypatch.setattr(sc, "asymptotic_pair_for", solve)
    with pytest.raises(InvalidParams):
        phase_difference(1.0, 1.0, tol=0.0)


def test_susy_phase_offset_landmarks():
    # arg((w - i omega)/(w + i omega)) with the w = 0 limit taken from below
    assert susy_phase_offset(0.0, 1.0) == math.pi
    assert susy_phase_offset(1.0, 1.0) == -HALF_PI
    assert susy_phase_offset(-1.0, 1.0) == HALF_PI
    assert abs(susy_phase_offset(-1e12, 1.0)) < 3e-12
    # attractive side approaches +pi continuously ...
    assert math.pi - 1e-8 < susy_phase_offset(-1e-9, 1.0) <= math.pi
    # ... while the repulsive side sits near -pi (same angle mod 2 pi)
    assert abs(susy_phase_offset(1e-9, 1.0) + math.pi) < 1e-8
    for w, omega in ((math.nan, 1.0), (-1.0, 0.0)):
        with pytest.raises(InvalidParams):
            susy_phase_offset(w, omega)


def test_offset_identity_on_synthetic_ladder():
    """Mapping a sinusoid through (d/dx + w) shifts its phase by exactly
    half the closed-form offset (mod pi), read by the ladder's rung ratio
    at |w|/omega from 1e-12 (the ladder reaches 5.6e-11) to 1e2."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        om = 10.0 ** rng.uniform(-1.0, 1.0)
        wv = -om * 10.0 ** rng.uniform(-12.0, 2.0)
        d0 = rng.uniform(-1.5, 1.5)
        x = 40.0 / om
        um = math.sin(om * x + d0)
        dum = om * math.cos(om * x + d0)
        up = (dum + wv * um) / om
        dup = (-om * om * um + wv * dum) / om
        d = sc._sector_difference(um, dum / om, up, dup / om)
        assert 0.0 <= d < math.pi
        gap = math.remainder(2.0 * d - susy_phase_offset(wv, om), 2.0 * math.pi)
        assert abs(gap) < 1e-12


def test_phase_difference_converges_to_half_pi():
    res = phase_difference(0.5, 2.0)
    assert res.converged
    assert res.m == 0.5 and res.omega == 2.0
    assert res.x_match == 10.0
    assert res.x[0] == 20.0                      # first ladder point: 2 x_match
    assert np.all(np.diff(res.x) > 0)
    assert np.all((res.raw >= 0.0) & (res.raw < math.pi))
    assert res.accelerated.size == res.x.size
    assert res.estimate == res.accelerated[-1]
    assert res.bound < 1e-3
    assert abs(res.estimate - HALF_PI) < 1e-3
    # every rung is read from the closed form's large-|y| expansion
    assert res.ode_steps == 0
    assert res.ode_rejected == 0


def test_phase_difference_at_coupling_one_half():
    # m^2/omega = 0.5: the stop fires on the proven bound, 7.8e-4 at x = 320,
    # never on an estimate still outside the tolerance of the limit
    res = phase_difference(1.0, 2.0)
    assert res.converged
    assert abs(res.estimate - HALF_PI) < 1e-3


#: the rung each ladder stops at, bit for bit: x = 80, 320 and 1280
_ONE_SECTOR = [(0.5, 2.0, "0x1.922f06301a7c4p+0"),
               (1.0, 2.0, "0x1.922cc6417a936p+0"),
               (1.0, 1.0, "0x1.922e26175a675p+0")]


@pytest.mark.parametrize("m, omega, estimate", _ONE_SECTOR)
def test_phase_difference_integrates_one_sector(m, omega, estimate):
    # PLUS is the SUSY image of MINUS at each rung, not a second solve, and
    # MINUS is read from the closed form at every rung: no step is taken.
    # The two-sector ladder and the one that integrated the complex MINUS
    # solution agreed with the rungs at x = 160, 640 and 5120 to 1e-9
    res = phase_difference(m, omega)
    assert res.ode_steps == 0
    assert res.estimate.hex() == estimate


@pytest.mark.parametrize("m, omega", [(math.sqrt(r * 1.5), 1.5) for r in (0.05, 0.2, 0.35, 0.5)]
                         + [(1.0, 1.0), (0.5, 2.0)])
def test_phase_difference_residual_covers_the_error(m, omega):
    # the spread of the last three rungs is reported as the residual, a
    # cross-check that no longer stops the ladder (inf below three rungs, as
    # at m^2/omega = 0.05); at these couplings it covers the error, as the
    # proven bound does.  At m^2/omega = 0.35 the last successive difference
    # (2.2e-4) once fell short of the error (5.6e-4)
    res = phase_difference(m, omega)
    assert res.converged
    assert res.ode_steps == 0
    spread = res.accelerated[-3:]
    assert res.residual == (spread.max() - spread.min() if spread.size == 3 else math.inf)
    assert abs(res.estimate - HALF_PI) <= min(res.residual, res.bound)


@given(log_r=st.floats(math.log10(0.02), 3.0), log_omega=st.floats(-8.0, 8.0),
       log_tol=st.floats(-9.0, -2.0))
def test_a_converged_ladder_is_within_tol_of_half_pi(log_r, log_omega, log_tol):
    # m^2/omega log-uniform in [0.02, 1000] over 16 decades of omega: the
    # ladder stops at the first rung whose proven bound is below tol, so the
    # estimate is too.  The spread of the last three rungs is only reported:
    # as the stop, it let 25 of 2,000 couplings stop more than 1e-3 from pi/2
    omega, tol = 10.0 ** log_omega, 10.0 ** log_tol
    m = math.sqrt(10.0 ** log_r * omega)
    res = phase_difference(m, omega, tol=tol)
    r = m / omega
    assert res.converged and res.bound < tol
    assert abs(res.estimate - HALF_PI) < tol
    assert res.x.size == 1 or math.asin(min(1.0, r * (r / res.x[-2]))) >= tol
    spread = res.accelerated[-3:]
    assert res.residual == (spread.max() - spread.min() if spread.size == 3 else math.inf)


#: the rung each ladder stops at under the criterion-07 budget, bit for bit;
#: ladders that integrated MINUS out to their rungs agreed with them to 1e-9
_STRONG = {(4.0, 1.0): "0x1.9236d1bb7b2acp+0", (3.0, 0.5): "0x1.92234ccc9a23cp+0",
           (8.0, 1.0): "0x1.9227332e2629ap+0", (10.0, 1.0): "0x1.922c77853b43ep+0"}


@pytest.mark.parametrize("m, omega", list(_STRONG))
def test_phase_difference_converges_at_strong_coupling(m, omega):
    # m^2/omega = 16, 18, 64 and 100: the ladder reads every rung from the
    # closed form, and stops within the criterion-07 budget
    res = phase_difference(m, omega)
    assert res.converged
    assert res.x[-1] <= 1e4 * max(1.0, m * m) / omega
    assert res.ode_steps == 0
    assert abs(res.estimate - HALF_PI) < 1e-3
    assert res.estimate.hex() == _STRONG[m, omega]


#: (m^2/omega, omega): past m^2/omega ~ 36 the base is the expansion's frontier.
#: One case at omega = 3; from 3e20 on, log|M| ~ pi eta rounds by many powers of two
_FAR = [(r, 1.0) for r in (64.0, 100.0, 256.0, 300.0, 350.0, 400.0, 900.0, 2500.0, 1e4, 1e6)]
_FAR += [(256.0, 3.0), (3e20, 1.0), (1.2e55, 1.0), (1e100, 1.0)]


@pytest.mark.parametrize("r, omega", _FAR)
def test_phase_difference_reads_every_rung_from_the_expansion(r, omega, monkeypatch):
    # eta = 32 to 5e99: the first rung sits at |y| = 1.1 eta^2, where the
    # expansion certifies the pair up to a factor per branch (and, past
    # eta ~ 223, a power of two); no rung takes the integrator
    def refuse(*args, **kwargs):
        raise AssertionError("the ladder integrated")

    monkeypatch.setattr(sc, "integrate", refuse)
    res = phase_difference(math.sqrt(r * omega), omega)
    assert res.converged
    assert res.ode_steps == 0 and res.ode_rejected == 0
    assert abs(res.estimate - HALF_PI) <= min(1e-3, res.bound + ROUNDING)


_BOUND_R = (0.05, 0.5, 0.785, 1.0, 8.0, 8.493139300018205, 16.0, 36.0, 64.64960441834442)


# the cases at omega = 1 are named by m^2/omega
@pytest.mark.parametrize("m, omega", [(math.sqrt(r), 1.0) for r in _BOUND_R]
                         + [(1.936344747109495e31, 8.056437169303738e60)],
                         ids=[str(r) for r in _BOUND_R]
                         + ["1.936344747109495e+31-8.056437169303738e+60"])
def test_phase_difference_bound_covers_the_error(m, omega):
    # the bound is proven, arcsin(m^2/(omega^2 x)) at the last rung, and it
    # stops the ladder.  The spread of the last three rungs, which stopped it
    # before, under-read the error at m^2/omega = 8, 16, 8.49 (by 9.7x) and
    # at 0.785, 64.6 and 46.5 (omega = 8.1e60), where it stopped 1.14e-3,
    # 3.34e-3 and 3.94e-3 from pi/2
    res = phase_difference(m, omega)
    assert math.isclose(res.bound, math.asin(m * m / (omega * omega * res.x[-1])),
                        rel_tol=1e-15)
    assert abs(res.estimate - HALF_PI) <= res.bound < 1e-3


#: (m, omega, the largest x the ladder may reach or None): the strong
#: couplings stop within the criterion-07 budget
_IDENTITY = [(0.5, 2.0, None), (1.0, 2.0, None), (1.0, 1.0, None)] + [
    (m, omega, 1e4 * max(1.0, m * m) / omega) for m, omega in _STRONG]


@pytest.mark.parametrize("m, omega, x_budget", _IDENTITY)
def test_each_rung_is_one_function_of_the_minus_sample(m, omega, x_budget):
    # read through the SUSY map, every rung is A_k = pi/2 - arg(1 + eps_k),
    # eps_k = W^2 u / ((W + i omega)(u' + i omega u)), for any real solution
    # u of V-, and |eps_k| <= m^2/(omega^2 x_k) bounds its distance from pi/2
    res = phase_difference(m, omega)
    assert x_budget is None or res.x[-1] <= x_budget
    p = solution_params(m, omega)
    pair = asymptotic_pair_for(p.a1.imag)
    for xk, acc in zip(res.x.tolist(), res.accelerated.tolist()):
        w = superpotential(xk, m) / omega
        u, du, _, _ = cf._ladder_sample(p, xk, w, pair)
        eps = w * w * u / ((w + 1j) * complex(du, u))
        assert abs(acc - (HALF_PI - cmath.phase(1.0 + eps))) <= 1e-14
        assert abs(acc - HALF_PI) <= math.asin(m * m / (omega * omega * xk))


@pytest.mark.parametrize("m, omega", [(1e120, 1e100), (1e130, 1e110)])
def test_phase_difference_where_the_complex_assembly_overflows(m, omega):
    # eta = 5e139 and 5e149: omega c2 y^{1/2} Q of the complex assembly
    # passes the largest double, and eta |y| does too, but the rung's four
    # values (u, u'/omega, v, v'/omega) and sqrt(eta) sqrt(|y|) do not
    res = phase_difference(m, omega)
    assert res.converged
    assert abs(res.estimate - HALF_PI) <= min(1e-3, res.bound + ROUNDING)


@pytest.mark.parametrize("m, omega", [(0.5, 2.0), (1.0, 1.0), (3.0, 0.5), (4.0, 1.0)])
def test_ladder_sample_is_the_real_minus_solution_and_its_susy_image(m, omega):
    # inside the series range, on kummer_pair: u and u'/omega are the real
    # parts of the branch-I MINUS closed form, v and v'/omega minus the
    # imaginary parts of its SUSY image
    p = solution_params(m, omega)
    for y in (1.0, 7.5, 23.0, 41.0, SERIES_ZMAX):
        x = y / (2.0 * omega)
        zm = cf.solution_Z(p, cf.Branch.I, Sector.MINUS, x)
        zp = cf.susy_map(p, zm, Sector.MINUS)
        want = (zm.value.real, zm.derivative.real / omega,
                -zp.value.imag, -zp.derivative.imag / omega)
        got = cf._ladder_sample(p, x, -m / (omega * math.sqrt(x)), specfun.kummer_pair)
        assert all(type(v) is float for v in got)
        gap = max(abs(g - w) for g, w in zip(got, want)) / max(map(abs, want))
        assert gap <= 1e-14, (x, got, want)


def test_ladder_sample_past_the_double_range_is_typed():
    def huge(eta, s):
        return [1e308 + 0j], [1e308 + 0j]        # R = 20 Q passes the largest double

    p = solution_params(1.0, 1.0)
    with pytest.raises(DoubleRangeExceeded, match="exceeds the double range"):
        cf._ladder_sample(p, 100.0, -0.1, huge)


@pytest.mark.parametrize("m, omega", [(1e-9, 1.0), (3e-9, 2.0), (1.0, 1e300)])
def test_phase_difference_at_vanishing_eta(m, omega):
    # eta = 5e-19, 2.25e-18 and 5e-301: the expansion's log_gamma(-i eta)
    # sits next to the pole at 0, and at omega = 1e300 the tail offset's
    # products pass the largest double unless scaled
    res = phase_difference(m, omega)
    assert res.converged
    assert res.ode_steps == 0
    assert abs(res.estimate - HALF_PI) <= 1e-3


@pytest.mark.parametrize("m, omega", [(1e-150, 1e-300), (1e150, 1e300)])
def test_phase_difference_depends_on_the_coupling_alone(m, omega):
    # m^2/omega = 1, as at (1, 1), with omega^2 and m^2 past the double
    # range: omega only rescales x, so the rungs read the same values
    ref = phase_difference(1.0, 1.0)
    res = phase_difference(m, omega)
    assert res.converged and res.x.size == ref.x.size
    assert abs(res.estimate - ref.estimate) <= 1e-12


def test_phase_difference_past_the_double_range_of_eta_is_typed():
    # m^2 = 1e600: eta is refused where it is formed, naming the inputs
    # rather than the CHF parameter it would have become
    with pytest.raises(DoubleRangeExceeded, match=r"eta = m\^2/\(2 omega\).*m=1e\+300"):
        phase_difference(1e300, 1e300)
    res = phase_difference(1e-200, 1.0)     # eta = 5e-401 underflows to 0
    assert res.converged and abs(res.estimate - HALF_PI) <= 1e-3


@pytest.mark.parametrize("m, omega, rung", [(1.0, 1e-300, 1), (1.0, 1e-160, 1),
                                           (math.sqrt(2e-304), 2e-304, 11)],
                         ids=["1.0-1e-300", "1.0-1e-160", "1.414213562373095e-152-2e-304"])
def test_phase_difference_rungs_past_the_double_range_are_typed(m, omega, rung):
    # x_match = 2.5 m^2/omega^2 is past the largest double at the first two
    # (omega^2 alone underflows to 0 at the first), so the first rung is too;
    # at the third x_match = 20/omega = 1e305, and at tol = 1e-6 the bound
    # falls below tol only past x = 5e309: the eleventh rung is not a double
    with pytest.raises(DoubleRangeExceeded, match=r"rungs x_match 2\^k pass the largest double"
                                                  rf".*: rung k = {rung},"):
        phase_difference(m, omega, tol=1e-6)


def test_phase_difference_reads_rungs_up_to_the_largest_double():
    # x_match = 1e305: at tol = 1e-3 the bound falls below tol past
    # x = 5e306, at the sixth rung, before the rungs leave the double range
    res = phase_difference(math.sqrt(2e-304), 2e-304)
    assert res.converged and res.x.size == 6 and res.x[-1] == 6.4e306
    assert abs(res.estimate - HALF_PI) <= res.bound < 1e-3


def test_phase_difference_rungs_past_the_double_range_in_y_are_typed():
    # x_match = 2.6e219 and the first rung are doubles, but its |y| =
    # 2 omega x_k with omega = 1e100 is not
    with pytest.raises(DoubleRangeExceeded, match=r"largest double .* in \|y\| = 2 omega x_k"):
        phase_difference(1.4e130, 1e100)


def test_phase_difference_converges_before_its_budget_leaves_the_double_range():
    # omega = 1e300: a rung at x = 1e300 would have |y| = 2 omega x past the
    # largest double, but the ladder stops at its first rung, x = 4e-299,
    # and never reads one
    res = phase_difference(1.0, 1e300)
    assert res.converged and res.x.tolist() == [4e-299]


def test_a_budget_does_not_hide_a_first_rung_past_the_double_range():
    # x_match = 2.5 m^2/omega^2 is inf: the limit to name is the double range
    with pytest.raises(DoubleRangeExceeded, match=r"rung k = 1, x_match = inf"):
        phase_difference(1.0, 1e-300)


#: (m, omega, the largest x the ladder may reach or None, its rungs)
@pytest.mark.parametrize("m, omega, x_budget, rungs", [(0.5, 2.0, None, 3),
                                                      (3.0, 0.5, 92160.0, 9)])
def test_log_gamma_calls_per_solve_do_not_grow_with_the_rungs(m, omega, x_budget, rungs,
                                                             monkeypatch):
    # the expansion's log-Gamma terms are computed once per solve: those of
    # its two shared factors, Gamma(1 - i eta) and Gamma(a); Gamma(1/2) and
    # Gamma(3/2) are sqrt(pi) and sqrt(pi)/2
    calls = []
    log_gamma = specfun.log_gamma

    def counted(z):
        calls.append(z)
        return log_gamma(z)

    monkeypatch.setattr(specfun, "log_gamma", counted)
    res = phase_difference(m, omega)
    assert res.converged and res.x.size == rungs
    assert x_budget is None or res.x[-1] <= x_budget
    assert len(calls) == 2


@pytest.mark.parametrize("m, omega", [(4.0, 1.0), (3.0, 0.5)])
def test_phase_difference_seeds_inside_the_series_range(m, omega, monkeypatch):
    # 2 omega x_match = 80 and 90, past the series range: the ladder forms
    # no seed inside it (no series-range closed form is called), and reads
    # its rungs x_match 2^k from the expansion
    def refuse(*args, **kwargs):
        raise AssertionError("a seed was formed")

    monkeypatch.setattr(sc, "solution_Z", refuse)
    res = phase_difference(m, omega)
    assert 2.0 * omega * res.x_match > SERIES_ZMAX
    assert np.array_equal(res.x[:3], res.x_match * np.array([2.0, 4.0, 8.0]))
    assert np.all(np.isfinite(res.raw))
    assert res.ode_steps == 0
