"""Phase extraction, the phase-difference ladder, and the closed-form offset."""
import cmath
import math

import numpy as np
import pytest

from susy_ces import scattering as sc
from susy_ces import specfun
from susy_ces.closedform import solution_params
from susy_ces.errors import DoubleRangeExceeded, InvalidParams, NotConverged
from susy_ces.potential import superpotential
from susy_ces.scattering import phase_difference, susy_phase_offset
from susy_ces.specfun import SERIES_ZMAX, asymptotic_pair_for

HALF_PI = 0.5 * math.pi


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
    with pytest.raises(InvalidParams):
        phase_difference(1.0, 1.0, tol=0.0)


@pytest.mark.parametrize("x_limit", [math.nan, math.inf, 0.0, -1.0])
def test_phase_config_rejects_bad_x_limit(x_limit):
    # x_limit is the ladder's only budget, so it must be a finite positive x
    with pytest.raises(InvalidParams):
        phase_difference(1.0, 1.0, x_limit=x_limit)


def test_keywords_are_checked_before_any_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran before the keywords were checked")

    monkeypatch.setattr(sc, "asymptotic_pair_for", solve)
    # x_match = 20 at (1, 1): a budget of 39 holds no rung, the first is x = 40
    for kw in ({"tol": 0.0}, {"x_limit": -1.0}, {"x_limit": 39.0}):
        with pytest.raises(InvalidParams):
            phase_difference(1.0, 1.0, **kw)


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
        d = sc._sector_difference(um, dum, up, dup, om)
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
    assert res.residual <= 1e-3
    assert abs(res.estimate - HALF_PI) < 1e-3
    # every rung is read from the closed form's large-|y| expansion
    assert res.ode_steps == 0
    assert res.ode_rejected == 0


def test_phase_difference_at_coupling_one_half():
    # m^2/omega = 0.5: the stop must not fire while the estimate is still
    # outside the tolerance of the limit
    res = phase_difference(1.0, 2.0)
    assert res.converged
    assert abs(res.estimate - HALF_PI) < 1e-3


_ONE_SECTOR = [(0.5, 2.0, 1.5708211957687452),
               (1.0, 2.0, 1.5708785957588574),
               (1.0, 1.0, 1.5708020327719778)]


@pytest.mark.parametrize("m, omega, estimate", _ONE_SECTOR)
def test_phase_difference_integrates_one_sector(m, omega, estimate):
    # PLUS is the SUSY image of MINUS at each rung, not a second solve, and
    # MINUS is read from the closed form at every rung: no step is taken.
    # The estimates are those of the two-sector ladder to 1e-9; the (1, 1)
    # value is that of the ladder that integrated the complex MINUS
    # solution, to 1e-9
    res = phase_difference(m, omega)
    assert res.ode_steps == 0
    assert abs(res.estimate - estimate) <= 1e-9


@pytest.mark.parametrize("m, omega", [(math.sqrt(r * 1.5), 1.5) for r in (0.05, 0.2, 0.35, 0.5)]
                         + [(1.0, 1.0), (0.5, 2.0)])
def test_phase_difference_residual_covers_the_error(m, omega):
    # the spread of the last three rungs is reported as the residual; at
    # m^2/omega = 0.35 the last successive difference (2.2e-4) fell short
    # of the error (5.6e-4)
    res = phase_difference(m, omega)
    assert res.converged and res.x.size >= 4
    assert res.ode_steps == 0
    spread = res.accelerated[-3:]
    assert res.residual == spread.max() - spread.min()
    assert abs(res.estimate - HALF_PI) <= res.residual


#: estimates of the ladder that integrated the complex MINUS solution at
#: (4, 1) and (3, 1/2), and, at (8, 1) and (10, 1), of the ladder that
#: integrated the seed's real part out to each of the same rungs (they
#: agreed to 4.2e-12 and 5.0e-12)
_STRONG = {(4.0, 1.0): 1.5711489756322417, (3.0, 0.5): 1.5706783460457436,
           (8.0, 1.0): 1.5709106433552393, (10.0, 1.0): 1.5706888645830597}


@pytest.mark.parametrize("m, omega", list(_STRONG))
def test_phase_difference_converges_at_strong_coupling(m, omega):
    # m^2/omega = 16, 18, 64 and 100: the ladder reads every rung from the
    # closed form, within the criterion-07 budget
    x_limit = 1e4 * max(1.0, m * m) / omega
    res = phase_difference(m, omega, x_limit=x_limit)
    assert res.converged
    assert np.all(res.x <= x_limit)
    assert res.ode_steps == 0
    assert abs(res.estimate - HALF_PI) < 1e-3
    assert abs(res.estimate - _STRONG[m, omega]) <= 1e-9


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
    assert abs(res.estimate - HALF_PI) <= min(1e-3, res.bound)


@pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 8.0, 16.0, 36.0])
def test_phase_difference_bound_covers_the_error(r):
    # the residual under-read the error at m^2/omega = 8 and 16 (2.1e-4
    # against 3.4e-4, 2.7e-4 against 3.5e-4); the bound is proven, and it is
    # arcsin(m^2/(omega^2 x)) at the last rung
    res = phase_difference(math.sqrt(r), 1.0)
    assert math.isclose(res.bound, math.asin(r / res.x[-1]), rel_tol=1e-15)
    assert abs(res.estimate - HALF_PI) <= res.bound


_IDENTITY = [(0.5, 2.0, None), (1.0, 2.0, None), (1.0, 1.0, None)] + [
    (m, omega, 1e4 * max(1.0, m * m) / omega) for m, omega in _STRONG]


@pytest.mark.parametrize("m, omega, x_limit", _IDENTITY)
def test_each_rung_is_one_function_of_the_minus_sample(m, omega, x_limit):
    # read through the SUSY map, every rung is A_k = pi/2 - arg(1 + eps_k),
    # eps_k = W^2 u / ((W + i omega)(u' + i omega u)), for any real solution
    # u of V-, and |eps_k| <= m^2/(omega^2 x_k) bounds its distance from pi/2
    res = phase_difference(m, omega, x_limit=x_limit)
    p = solution_params(m, omega)
    pair = asymptotic_pair_for(p.a1.imag)
    for xk, acc in zip(res.x.tolist(), res.accelerated.tolist()):
        far = sc._far_sample(p, xk, pair)
        u, du = far.value, far.derivative
        w = superpotential(xk, m)
        eps = w * w * u.real / ((w + 1j * omega) * complex(du.real, omega * u.real))
        assert abs(acc - (HALF_PI - cmath.phase(1.0 + eps))) <= 1e-14
        assert abs(acc - HALF_PI) <= math.asin(m * m / (omega * omega * xk))


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


@pytest.mark.parametrize("m, omega", [(1.0, 1e-300), (1.0, 1e-160),
                                      (math.sqrt(2e-304), 2e-304)])
def test_phase_difference_rungs_past_the_double_range_are_typed(m, omega):
    # x_match = 2.5 m^2/omega^2 is past the largest double at the first two
    # (omega^2 alone underflows to 0 at the first); at the third x_match =
    # 20/omega = 1e305 is a double, but the default budget x_match 2^14 is not
    with pytest.raises(DoubleRangeExceeded, match=r"rungs x_match 2\^k pass the largest double"):
        phase_difference(m, omega)


def test_phase_difference_within_a_budget_below_the_largest_double():
    # x_match = 1e305: a budget of four rungs is all doubles
    with pytest.raises(NotConverged) as exc:
        phase_difference(math.sqrt(2e-304), 2e-304, x_limit=1e305 * 2 ** 4)
    assert exc.value.result.x.tolist() == [1e305 * 2.0 ** k for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("m, omega, x_limit, rungs", [(0.5, 2.0, None, 4),
                                                     (3.0, 0.5, 92160.0, 10)])
def test_log_gamma_calls_per_solve_do_not_grow_with_the_rungs(m, omega, x_limit, rungs,
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
    res = phase_difference(m, omega, x_limit=x_limit)
    assert res.converged and res.x.size == rungs
    assert len(calls) == 2


def test_phase_difference_budget_exhaustion():
    with pytest.raises(NotConverged) as exc:
        phase_difference(0.5, 2.0, x_limit=50.0)
    res = exc.value.result
    assert res is not None
    assert not res.converged
    assert res.x.size >= 1
    assert np.all(res.x <= 50.0)
    assert np.all(np.isfinite(res.raw))


def test_phase_difference_too_few_points():
    with pytest.raises(NotConverged):
        # x_match = 10: two rungs, at x = 20 and 40
        phase_difference(0.5, 2.0, x_limit=10.0 * 2 ** 2)


@pytest.mark.parametrize("m, omega", [(4.0, 1.0), (3.0, 0.5)])
def test_phase_difference_seeds_inside_the_series_range(m, omega, monkeypatch):
    # 2 omega x_match = 80 and 90, past the series range: the ladder forms
    # no seed inside it (no series-range closed form is called), and reads
    # its rungs x_match 2^k from the expansion
    def refuse(*args, **kwargs):
        raise AssertionError("a seed was formed")

    monkeypatch.setattr(sc, "solution_Z", refuse)
    x_match = sc.default_x_match(m, omega)
    with pytest.raises(NotConverged) as exc:
        phase_difference(m, omega, x_limit=x_match * 2 ** 3)
    res = exc.value.result
    assert 2.0 * omega * res.x_match > SERIES_ZMAX
    assert np.array_equal(res.x, res.x_match * np.array([2.0, 4.0, 8.0]))
    assert np.all(np.isfinite(res.raw))
    assert res.ode_steps == 0
