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
from susy_ces.specfun import SERIES_ZMAX, asymptotic_pair

HALF_PI = 0.5 * math.pi
#: a rung's own rounding, which its bound does not cover: at most 2.2 eps
#: measured, and at m^2/omega = 3e20 the one rung read is 1 ulp from pi/2
ROUNDING = 4 * 2.0 ** -52


def test_default_x_match_values():
    assert sc.default_x_match(1.0, 1.0, 0.5) == 20.0
    assert sc.default_x_match(0.5, 2.0, 0.0625) == 10.0
    assert sc.default_x_match(2.0, 0.5, 4.0) == 40.0
    # m^2/omega = 36 is still 2.5 m^2/omega^2; from 64 on the first rung
    # sits at |y| = 4 omega x_match = 1.1 eta^2
    assert sc.default_x_match(6.0, 1.0, 18.0) == 90.0
    for m, omega in ((8.0, 1.0), (10.0, 1.0), (1e3, 1.0), (20.0, 0.5)):
        eta = 0.5 * m * m / omega
        assert math.isclose(4.0 * omega * sc.default_x_match(m, omega, eta), 1.1 * eta * eta,
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

    monkeypatch.setattr(sc, "asymptotic_pair", solve)
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


_SCALED = st.floats(-2.0 ** 20, 2.0 ** 20).filter(lambda v: v == 0.0 or abs(v) >= 2.0 ** -20)


@given(w=_SCALED, omega=st.floats(2.0 ** -20, 2.0 ** 20), k=st.sampled_from((600, -600, 1000, -1000)))
def test_susy_phase_offset_is_homogeneous_bit_for_bit(w, omega, k):
    # past 2**+-500 both arguments are scaled by one power of two, exactly,
    # so the offset at (w 2**k, omega 2**k) is the offset at (w, omega)
    assert susy_phase_offset(math.ldexp(w, k), math.ldexp(omega, k)) == susy_phase_offset(w, omega)


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


#: every float field of four solves, bit for bit: the rungs x_1 2^k from the
#: first, and per rung the raw and tail-corrected differences; then the
#: residual and the bound (the estimate is the last corrected rung).  At
#: m^2/omega = 0.05 (two rungs), 2.5, 400 (the base is the expansion's
#: frontier) and 3e20 (one rung, |M| ~ e^{pi eta} scaled by a power of two)
_PINNED = {
    (0.31622776601683794, 2.0): (
        "0x1.4000000000000p+4", ["0x1.890e9a9d3655cp+0", "0x1.8ba535754c3eap+0"],
        ["0x1.921aafcec731dp+0", "0x1.920b4482761bdp+0"], "inf", "0x1.47ae15e0cb43ep-11"),
    (1.4142135623730951, 0.8): (
        "0x1.9000000000000p+5",
        ["0x1.58b44591c0557p+0", "0x1.61a4f649aa857p+0", "0x1.703d3e657d6edp+0",
         "0x1.7ba04ce52cc3ap+0", "0x1.824a44f621622p+0", "0x1.86ce85857c880p+0",
         "0x1.8a044ad984c71p+0"],
        ["0x1.976b318419572p+0", "0x1.8e6fbbc29cd0ep+0", "0x1.9012f900299e4p+0",
         "0x1.9231e78d2127cp+0", "0x1.9244f2d1b7e11p+0", "0x1.921cf2917b645p+0",
         "0x1.9203a0486f249p+0"], "0x1.054a2522f2000p-10", "0x1.000002aaaabdep-10"),
    (20.0, 1.0): (
        "0x1.57c0000000001p+14",
        ["0x1.6e69df5689080p+0", "0x1.7a7c0ff4b7ddep+0", "0x1.80a58dc99880cp+0",
         "0x1.85aa67ad6d49dp+0", "0x1.898b761002710p+0", "0x1.8c05ad7067e64p+0"],
        ["0x1.90b9c3cb6da3cp+0", "0x1.92d1d799236ecp+0", "0x1.91e1504cfa6e3p+0",
         "0x1.91dc58f779e9cp+0", "0x1.922bd7d137d23p+0", "0x1.921f88eb594b3p+0"],
        "0x1.3dfb66f7a1c00p-10", "0x1.29e413ab291ecp-11"),
    (17320508075.688774, 1.0): (
        "0x1.22ef52730e156p+133", ["0x1.921fb543979fep+0"], ["0x1.921fb54442d17p+0"],
        "inf", "0x1.c9ed2b9e795f9p-66"),
}


@pytest.mark.parametrize("m, omega", list(_PINNED))
def test_phase_difference_fields_are_pinned_bit_for_bit(m, omega):
    x1, raw, acc, residual, bound = _PINNED[m, omega]
    res = phase_difference(m, omega)
    x = [math.ldexp(float.fromhex(x1), k).hex() for k in range(len(raw))]
    assert [v.hex() for v in res.x.tolist()] == x
    assert [v.hex() for v in res.raw.tolist()] == raw
    assert [v.hex() for v in res.accelerated.tolist()] == acc
    assert (res.estimate.hex(), res.residual.hex(), res.bound.hex()) == (acc[-1], residual, bound)


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
    assert res.ode_steps == 0
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
    for xk, acc in zip(res.x.tolist(), res.accelerated.tolist()):
        w = superpotential(xk, m) / omega
        y = 2.0 * omega * xk
        (pp,), (qq,) = asymptotic_pair(p.a1.imag, [y])
        u, du, _, _ = cf._ladder_sample(p, y, w, pp, qq)
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
        (pp,), (qq,) = specfun.kummer_pair(p.a1.imag, [2.0 * omega * x])
        got = cf._ladder_sample(p, 2.0 * omega * x, -m / (omega * math.sqrt(x)), pp, qq)
        assert all(type(v) is float for v in got)
        gap = max(abs(g - w) for g, w in zip(got, want)) / max(map(abs, want))
        assert gap <= 1e-14, (x, got, want)


def test_ladder_sample_is_solution_z_bit_for_bit():
    # one formula: fed the pair kummer_pair returns, the ladder's u and v are
    # Re Z^I_- and -Im Z^I_+ of solution_Z to the last bit, at 300 random
    # (m, omega) and |y| in (0, 59.9]
    rng = np.random.default_rng(2015)
    for _ in range(300):
        m, omega = 10.0 ** rng.uniform(-1.5, 1.2), 10.0 ** rng.uniform(-1.5, 1.5)
        x = (59.9 - rng.uniform(0.0, 59.9)) / (2.0 * omega)
        p = solution_params(m, omega)
        y = 2.0 * omega * x
        (pp,), (qq,) = specfun.kummer_pair(p.a1.imag, [y])
        u, _, v, _ = cf._ladder_sample(p, y, -m / (omega * math.sqrt(x)), pp, qq)
        zm = cf.solution_Z(p, cf.Branch.I, Sector.MINUS, x).value
        zp = cf.solution_Z(p, cf.Branch.I, Sector.PLUS, x).value
        assert (u.hex(), v.hex()) == (zm.real.hex(), (-zp.imag).hex()), (m, omega, x)


def test_ladder_sample_past_the_double_range_is_typed():
    # R = 20 Q passes the largest double
    p = solution_params(1.0, 1.0)
    with pytest.raises(DoubleRangeExceeded, match="exceeds the double range"):
        cf._ladder_sample(p, 200.0, -0.1, 1e308 + 0j, 1e308 + 0j)


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
    # m^2 = 1e600 and 1e310, but eta = 5e299 is a double: the first rung's
    # |y| = 1.1 eta^2 is not, and the rung check names it with the inputs
    for m, omega in ((1e300, 1e300), (1e155, 1e10)):
        with pytest.raises(DoubleRangeExceeded, match=r"rungs x_match 2\^k pass the largest "
                                                      r"double \(.*\) in x_k or in \|y\|") as exc:
            phase_difference(m, omega)
        assert f"m={m!r}, omega={omega!r}: rung k = 1," in str(exc.value)
    res = phase_difference(1e-200, 1.0)     # eta = 5e-401 underflows to 0
    assert res.converged and abs(res.estimate - HALF_PI) <= 1e-3


@pytest.mark.parametrize("m, omega, x", [(1e200, 1e300, 1.375e-101), (1e160, 1e200, 1.375e39)])
def test_phase_difference_where_m_squared_passes_the_double_range(m, omega, x):
    # eta = 5e99 and 5e119 are doubles though m^2 is not: the ladder reads
    # its one rung, at |y| = 1.1 eta^2
    res = phase_difference(m, omega)
    assert res.converged and res.x.size == 1
    assert math.isclose(res.x[0], x, rel_tol=1e-12)
    assert abs(res.estimate - HALF_PI) <= min(1e-3, res.bound + ROUNDING)


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


@pytest.mark.parametrize("m, omega", [(0.5, 2.0), (3.0, 0.5), (10.0, 1.0)])
def test_a_solve_reads_every_rung_in_one_pair_call(m, omega, monkeypatch):
    # the stop rule depends on x_k alone, so every rung is placed before
    # any is read, and the pair is called once with all of them
    calls = []

    def counted(eta, s):
        calls.append((eta, list(s)))
        return asymptotic_pair(eta, s)

    monkeypatch.setattr(sc, "asymptotic_pair", counted)
    res = phase_difference(m, omega)
    assert calls == [(solution_params(m, omega).a1.imag,
                      [2.0 * omega * xk for xk in res.x.tolist()])]
    assert res.x.size > 1


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
