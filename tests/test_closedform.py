"""Closed-form solutions: assembly, independent-series agreement,
Wronskian, intertwining, eigenvalue identity, limits."""
import cmath
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susy_ces import closedform as cf
from susy_ces import highprec, oracle, potential, specfun
from susy_ces.closedform import PHASE_M4, PHASE_P4, Branch
from susy_ces.errors import (DomainError, DoubleRangeExceeded, InvalidParams,
                             SeriesRangeExceeded)
from susy_ces.potential import Sector
from susy_ces.scattering import phase_difference
from susy_ces.specfun import chf_1f1_deriv
from susy_ces.verify import series_components, series_solution_Z, wronskian_grid

FAMILIES = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))


def test_solution_params_fields():
    p = cf.solution_params(1.0, 1.0)
    assert p.a1 == 0.5j
    assert p.a2 == 0.5 + 0.5j
    assert p.rt_eta == math.sqrt(0.5)
    # eta = m^2/2 underflows to 0: sqrt(eta) falls back to m/sqrt(2 omega)
    assert cf.solution_params(1e-170, 1.0).rt_eta == 1e-170 / math.sqrt(2.0)
    assert p.sqrt_2w == math.sqrt(2.0)
    q = cf.solution_params(1.3, 0.7)
    assert q.sqrt_2w == math.sqrt(1.4)
    assert q.a1 == complex(0.0, (0.5 * (1.3 * 1.3)) / 0.7)


def test_solution_params_validation():
    for m, omega in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                     (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidParams):
            cf.solution_params(m, omega)


@pytest.mark.parametrize("m, omega", [(1e300, 1e300), (1e200, 1e300), (1e160, 1.0)])
def test_solution_params_past_the_double_range_of_eta(m, omega):
    # m^2 is past the largest double at all three; eta = m^2/(2 omega) only
    # at (1e160, 1), 5e319: refused where it is formed, with the inputs
    # named, not passed on as a1 = inf j.  At the other two eta (5e299 and
    # 5e99) is a double, m^2/(2 omega) correctly rounded
    eta = Fraction(m) ** 2 / (2 * Fraction(omega))
    if eta > sys.float_info.max:
        with pytest.raises(DoubleRangeExceeded, match=r"eta = m\^2/\(2 omega\).*: eta passes") as exc:
            cf.solution_params(m, omega)
        assert f"m={m!r}, omega={omega!r}" in str(exc.value)
    else:
        assert cf.solution_params(m, omega).a1 == complex(0.0, float(eta))


@pytest.mark.parametrize("m, omega", [(1e200, 1e300), (1.0, 1e300), (1.0, 1.7e308)])
def test_every_solution_param_is_finite(m, omega):
    # omega^2 is past the largest double at all three, 2 omega at 1.7e308:
    # no field holds either, sqrt(2 omega) is formed as 2 sqrt(omega / 2)
    # there, and rt_eta falls back to m / sqrt(2 omega) = 5.42e-155 at the
    # subnormal eta = 2.9e-309, not to m / inf = 0
    p = cf.solution_params(m, omega)
    assert all(cmath.isfinite(v) for v in p)
    if omega == 1.7e308:
        assert p.sqrt_2w == 2.0 * math.sqrt(0.5 * omega)
        assert p.rt_eta == m / p.sqrt_2w > 0.0
    assert p.rt_eta > 0.0 and p.sqrt_2w > 0.0


def _binary(lo: int, hi: int):
    """Positive doubles with a uniform mantissa and a binary exponent in [lo, hi]."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(lo, hi))


@given(omega=_binary(-1073, 1024))
def test_sqrt_2w_is_sqrt_2_omega(omega):
    # where 2 omega is a double, sqrt_2w is its square root bit for bit, on
    # both sides of omega = 1 (subnormal omega / 2 included)
    assume(2.0 * omega < math.inf)
    assert cf.solution_params(omega, omega).sqrt_2w == math.sqrt(2.0 * omega)


@given(m=_binary(-520, 520), omega=_binary(-1021, 1024))
def test_eta_is_the_direct_quotient_wherever_it_is_normal(m, omega):
    # eta is formed from the mantissas and exponents of m and omega; where
    # 0.5 (m m) and that quotient are normal doubles it is the same double
    half, tiny = 0.5 * (m * m), sys.float_info.min
    assume(tiny <= half <= sys.float_info.max and tiny <= half / omega <= sys.float_info.max)
    assert cf.solution_params(m, omega).a1.imag == half / omega


def test_phase_constants():
    assert PHASE_M4 == pytest.approx(cmath.exp(-0.25j * math.pi), rel=1e-15)
    assert PHASE_P4 * PHASE_M4 == pytest.approx(1.0, rel=1e-15)
    assert PHASE_P4 ** 2 == pytest.approx(1j, rel=1e-15)


def test_y_of_x():
    assert complex(cf.y_of_x(1.5, 2.0)) == -6j
    x = np.array([0.5, 2.0])
    assert np.array_equal(cf.y_of_x(x, 1.0), -2j * x)


@pytest.mark.parametrize("x", [1e300, [1.0, 1e300]])
def test_y_of_x_past_the_double_range_is_typed(x):
    # 2 omega x = 2e600 is past the largest double: refused, not -inf j
    with pytest.raises(DoubleRangeExceeded, match="double range"):
        cf.y_of_x(x, 1e300)


def test_coupling_constants_spot_values():
    p = cf.solution_params(1.0, 1.0)
    ci = cf.coupling_constants(p, Branch.I)
    cii = cf.coupling_constants(p, Branch.II)
    assert ci.c1 == 1.0 + 0j and cii.c1 == 1.0 + 0j
    # 2 sqrt(2) e^{i pi/4} (i/2) = sqrt(2) e^{i 3pi/4} = -1 + i
    assert ci.c2 == pytest.approx(-1.0 + 1.0j, rel=1e-15)
    # sqrt(2) e^{i pi/4} / 2 = (1 + i)/2
    assert cii.c2 == pytest.approx(0.5 + 0.5j, rel=1e-15)


@pytest.mark.parametrize("m,omega", FAMILIES)
def test_components_match_independent_frobenius_series(m, omega):
    """Every component must equal the corresponding Frobenius solution of
    the transformed equation, computed by a code path that shares nothing
    with the hypergeometric evaluator."""
    p = cf.solution_params(m, omega)
    c2_i = cf.coupling_constants(p, Branch.I).c2
    c2_ii = cf.coupling_constants(p, Branch.II).c2
    # |y| = 2 omega x reaches 40 and 59, near the series bound
    for x in (0.3, 1.0, 5.0, 20.0 / omega, 29.5 / omega):
        y = complex(cf.y_of_x(x, omega))
        h = cmath.exp(-0.5 * y)
        # (branch, index into components): rtilde_1 is 0, rtilde_2 is 1
        want = {
            (Branch.I, 0): h * oracle.frobenius_series_solution(p.a1, 0.0, y),
            (Branch.I, 1): c2_i * h * oracle.frobenius_series_solution(p.a2, 0.5, y),
            (Branch.II, 0): h * oracle.frobenius_series_solution(p.a1, 0.5, y),
            (Branch.II, 1): c2_ii * h * oracle.frobenius_series_solution(p.a2, 0.0, y),
        }
        for (br, j), ref in want.items():
            got = complex(cf.components(p, br, x)[j])
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (br, j, x)


def test_solution_assembly_from_components():
    p = cf.solution_params(1.0, 1.0)
    x = np.linspace(0.2, 8.0, 9)
    for br in Branch:
        r1, r2, d1, d2 = cf.components(p, br, x)
        # shaped like x, and a second call gives the same bits
        for got, want in zip(cf.components(p, br, x), (r1, r2, d1, d2)):
            assert got.shape == x.shape
            assert np.array_equal(got, want)
        for sec in Sector:
            z = cf.solution_Z(p, br, sec, x)
            sg = 1j * sec.sign
            # assembled point by point in Python complex, not by numpy's
            # array loops, which fuse multiply and add
            for i, (a, b, da, db) in enumerate(zip(r1.tolist(), r2.tolist(),
                                                   d1.tolist(), d2.tolist())):
                assert z.value[i] == PHASE_M4 * (a + sg * b)
                assert z.derivative[i] == PHASE_M4 * (da + sg * db)


def test_one_point_matches_its_table_row_bit_for_bit():
    # a lone x runs the same per-point loop as a row of a grid
    omega = 2.0
    x = np.linspace(0.1, 29.0 / omega, 41)
    for ratio in (0.05, 0.2, 0.35, 0.5):  # m^2 / omega
        p = cf.solution_params(math.sqrt(ratio * omega), omega)
        for br in Branch:
            rows = cf.components(p, br, x)
            for sec in Sector:
                grid = cf.solution_Z(p, br, sec, x)
                for i, xi in enumerate(x.tolist()):
                    one = cf.solution_Z(p, br, sec, xi)
                    assert np.shape(one.value) == ()
                    assert one.value == grid.value[i]
                    assert one.derivative == grid.derivative[i]
                    if sec is Sector.PLUS:
                        assert cf.components(p, br, xi) == tuple(r[i] for r in rows)


@pytest.mark.parametrize("branch", list(Branch))
def test_one_series_loop_per_point(branch, monkeypatch):
    # a lone point is a one-point walk: one series loop gives M of both
    # components, the first formed exactly from the second's terms, with
    # neither a Taylor step nor a second series; the derivatives come from
    # the first-order system, not from M'
    def refuse(name):
        def call(*args, **kw):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(specfun, "chf_1f1_deriv", refuse("chf_1f1_deriv"))
    monkeypatch.setattr(cf, "chf_1f1_deriv", refuse("chf_1f1_deriv"))
    # series loops: the pair loop, and the general series' loop, which the walk never runs
    sums = []
    for name in ("_pair_loop", "_fixed_sum"):
        real = getattr(highprec, name)
        monkeypatch.setattr(highprec, name, lambda *args, real=real, **kw:
                            sums.append(args) or real(*args, **kw))
    p = cf.solution_params(1.0, 1.0)
    with monkeypatch.context() as mp:
        for name in ("_step", "chf_series_fixed"):
            mp.setattr(highprec, name, refuse(name))
        cf.solution_Z(p, branch, Sector.PLUS, 7.5)
    assert len(sums) == 1
    assert highprec.kummer_walk(p.a1.imag, [15.0]).sums == 1
    # a grid starts a state (one loop) at each point out of a step's reach
    # of the one before, and steps from the last: 5 such points over |y| in
    # [1, 40] and 4 over |y| in (0, 59], where every value certifies
    for x, want in ((np.linspace(0.5, 20.0, 16), 5),
                    (np.linspace(29.5 / 256, 29.5, 256), 4)):
        sums.clear()
        cf.solution_Z(p, branch, Sector.PLUS, x)
        assert len(sums) == want
        s = (2.0 * x).tolist()
        assert highprec.kummer_walk(p.a1.imag, s).sums == want


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.one_of(st.just(0.0), st.floats(1e-6, 16.0)), omega=st.floats(0.25, 4.0),
       log_y=st.floats(-6.0, math.log10(60.0)))
def test_branch_i_is_the_recipe_and_branch_ii_its_conjugate(eta, omega, log_y):
    # both branches come from the one pair M(a2, 1/2), M(a2, 3/2): branch I
    # is its conjugate by Kummer's transformation.  Held against the recipe
    # summed through chf_1f1, M(a1, 1/2) and M(a1+1, 3/2) with no walk, and
    # Z^II = +-c2^II conj(Z^I); eta = 0 is m**2 underflowing
    m = math.sqrt(2.0 * omega * eta) if eta > 0.0 else 1e-170
    p = cf.solution_params(m, omega)
    x = 10.0 ** log_y / (2.0 * omega)
    y = cf.y_of_x(x, omega)
    h = cmath.exp(-0.5 * y)
    s = math.sqrt(2.0 * omega * x) * PHASE_M4
    c2 = cf.coupling_constants(p, Branch.I).c2
    want = (h * specfun.chf_1f1(p.a1, 0.5, y),
            c2 * h * s * specfun.chf_1f1(p.a1 + 1.0, 1.5, y))
    for got, r in zip(cf.components(p, Branch.I, x), want):
        assert abs(got - r) <= 1e-13 * max(1.0, abs(r))
    c2_ii = cf.coupling_constants(p, Branch.II).c2
    for sec in Sector:
        z_i = cf.solution_Z(p, Branch.I, sec, x).value
        z_ii = cf.solution_Z(p, Branch.II, sec, x).value
        assert abs(z_ii - sec.sign * c2_ii * z_i.conjugate()) <= 1e-13 * max(1.0, abs(z_ii))


@pytest.mark.parametrize("branch", list(Branch))
def test_small_eta_takes_one_loop(branch, monkeypatch):
    # at small eta both branches take the one pair, whose P is formed from
    # Q's terms and certifies: a lone point at eta = 1e-5 is one loop, and
    # a 256-point table to |y| = 59 at eta = 1e-6 a handful
    walks = []
    real = specfun.kummer_walk
    monkeypatch.setattr(specfun, "kummer_walk",
                        lambda *args: walks.append(real(*args)) or walks[-1])
    omega = 1.0
    p = cf.solution_params(math.sqrt(2.0 * omega * 1e-5), omega)
    for y in (0.01, 0.5, 5.0, 30.0, 59.0):
        cf.components(p, branch, y / (2.0 * omega))
        assert walks[-1].sums == 1
    p = cf.solution_params(math.sqrt(2.0 * omega * 1e-6), omega)
    cf.components(p, branch, np.linspace(59.0 / 256, 59.0, 256) / (2.0 * omega))
    assert walks[-1].sums <= 8


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.floats(1e-3, 16.0), omega=st.floats(0.25, 4.0),
       ends=st.lists(st.floats(-6.0, math.log10(59.9)), min_size=2, max_size=2, unique=True),
       n=st.integers(2, 300), kind=st.sampled_from(("linear", "log", "unsorted", "repeated", "dense")),
       seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(list(Branch)))
def test_grid_rows_equal_lone_points(eta, omega, ends, n, kind, seed, branch):
    # continued or summed, each value of a grid is the lone point's, bit for
    # bit; a dense grid, a table's of up to 1,000 points from |y| = hi / n to
    # hi, has many points in the reach of each step
    lo, hi = sorted(10.0 ** np.array(ends))
    if kind == "dense":
        n = 100 + 3 * n
        kind, lo, hi = "linear", max(hi, 8.0) / n, max(hi, 8.0)
    rng = np.random.default_rng(seed)
    if kind == "log":
        y = np.geomspace(lo, hi, n)
    elif kind == "unsorted":
        y = rng.permutation(np.linspace(lo, hi, n))
    elif kind == "repeated":
        y = rng.choice(np.linspace(lo, hi, n // 2 + 1), n)
    else:
        y = np.linspace(lo, hi, n)
    x = y / (2.0 * omega)
    p = cf.solution_params(math.sqrt(2.0 * omega * eta), omega)
    rows = cf.components(p, branch, x)
    for i, xi in enumerate(x.tolist()):
        assert cf.components(p, branch, xi) == tuple(r[i] for r in rows)


@pytest.mark.parametrize("branch", list(Branch))
def test_grid_rows_equal_lone_points_when_m_squared_underflows(branch):
    # m = 1e-170 makes a1 = 0j: the walk carries the pair at eta = 0 too
    p = cf.solution_params(1e-170, 1.0)
    assert p.a1 == 0j
    for x in (np.linspace(29.5 / 64, 29.5, 64), np.geomspace(1e-4, 29.5, 64)):
        rows = cf.components(p, branch, x)
        for i, xi in enumerate(x.tolist()):
            assert cf.components(p, branch, xi) == tuple(r[i] for r in rows)


@pytest.mark.parametrize("m", [1e-170, 1.5e-160])
def test_branch_ii_keeps_its_first_component_where_m_squared_underflows(m):
    # r1 = conj(c2) h R with R = 2 sqrt(eta) sqrt(|y|) Q: where eta is 0
    # (m = 1e-170) or subnormal (1.1e-320, a dozen bits), sqrt(eta) is
    # m/sqrt(2 omega), not 0 or the root of those bits, so r1 = h y^{1/2} Q
    # and its derivative are those at a normal eta
    x = np.geomspace(1e-3, 29.5, 7)
    got = cf.components(cf.solution_params(m, 1.0), Branch.II, x)
    near = cf.components(cf.solution_params(1e-150, 1.0), Branch.II, x)
    for j in (0, 2):
        assert np.max(np.abs(got[j] - near[j]) / np.abs(near[j])) <= 1e-14


def _dilated(m: float, omega: float, e: int) -> tuple[float, float]:
    """(m 2^-e, omega 4^-e): the coupling eta = m^2/(2 omega) keeps its bits."""
    return math.ldexp(m, -e), math.ldexp(omega, -2 * e)


def _scaled(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


@settings(max_examples=settings.default.max_examples // 5)
@given(eta=st.floats(1e-4, 20.0), log_omega=st.floats(-3.0, 3.0),
       log_y=st.floats(-6.0, math.log10(59.9)), e=st.integers(-40, 40))
def test_closed_form_is_dilation_covariant_bit_for_bit(eta, log_omega, log_y, e):
    # (m, omega, x) -> (m 2^-e, omega 4^-e, x 4^e) leaves eta and |y| = 2 omega x
    # unchanged, so every value keeps its bits and every derivative scales by
    # exactly 4^-e; every input stays a normal double
    omega = 10.0 ** log_omega
    m, x = math.sqrt(2.0 * omega * eta), 10.0 ** log_y / (2.0 * omega)
    p, q = cf.solution_params(m, omega), cf.solution_params(*_dilated(m, omega, e))
    xd = math.ldexp(x, 2 * e)
    for br in Branch:
        r1, r2, d1, d2 = cf.components(p, br, x)
        assert cf.components(q, br, xd) == (r1, r2, _scaled(d1, -2 * e), _scaled(d2, -2 * e))
        for sec in Sector:
            z = cf.solution_Z(p, br, sec, x)
            zd = cf.solution_Z(q, br, sec, xd)
            assert (zd.value, zd.derivative) == (z.value, _scaled(z.derivative, -2 * e))


@settings(max_examples=settings.default.max_examples // 5)
@given(log_r=st.floats(math.log10(0.02), 2.0), log_omega=st.floats(-3.0, 3.0),
       e=st.integers(-40, 40))
def test_phase_difference_is_dilation_covariant_bit_for_bit(log_r, log_omega, e):
    # the ladder depends on the coupling alone: under the same dilation every
    # field keeps its bits, and the rungs and their base scale by exactly 4^e
    omega = 10.0 ** log_omega
    m = math.sqrt(10.0 ** log_r * omega)
    res, resd = phase_difference(m, omega), phase_difference(*_dilated(m, omega, e))
    assert [v.hex() for v in resd.x.tolist()] == [math.ldexp(v, 2 * e).hex() for v in res.x.tolist()]
    assert resd.x_match == math.ldexp(res.x_match, 2 * e)
    assert resd.raw.tolist() == res.raw.tolist()
    assert resd.accelerated.tolist() == res.accelerated.tolist()
    assert (resd.estimate, resd.residual, resd.bound) == (res.estimate, res.residual, res.bound)


def test_rtilde_first_order_system():
    # components takes its derivatives from this system, so check the
    # independent ones, dM/dy = (a/b) M(a+1, b+1; y) through dy/dx
    for m, omega in FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.logspace(-2, math.log10(20.0 / omega), 25)
        wx = potential.superpotential(x, m)
        for br in Branch:
            r1, r2, d1, d2 = series_components(p, br, x)
            sc = np.maximum(1.0, np.abs(r1) + np.abs(r2))
            assert np.max(np.abs(d1 - 1j * omega * r1 - 1j * wx * r2) / sc) < 1e-12
            assert np.max(np.abs(d2 + 1j * omega * r2 + 1j * wx * r1) / sc) < 1e-12


def test_wronskian_exact_spot_value():
    p = cf.solution_params(1.0, 1.0)
    assert cf.wronskian_exact(p, Sector.PLUS) == pytest.approx(1.0 - 1.0j, rel=1e-15)
    assert cf.wronskian_exact(p, Sector.MINUS) == pytest.approx(-1.0 + 1.0j, rel=1e-15)
    for m, omega in FAMILIES:
        q = cf.solution_params(m, omega)
        assert cf.wronskian_exact(q, Sector.PLUS) == -cf.wronskian_exact(q, Sector.MINUS)


@pytest.mark.parametrize("m,omega", ((1.0, 1.0), (2.0, 0.5)))
def test_wronskian_constant_on_viable_grid(m, omega):
    p = cf.solution_params(m, omega)
    x = wronskian_grid(m, omega)
    for sec in Sector:
        wr = cf.wronskian_Z(p, sec, x)
        ex = cf.wronskian_exact(p, sec)
        assert np.max(np.abs(wr - ex)) / abs(ex) < 1e-8


@pytest.mark.parametrize("sec", list(Sector))
def test_wronskian_walks_the_pair_once(sec, monkeypatch):
    # both branches are assembled from one walk of the pair, and the result
    # is Z^I dZ^II - Z^II dZ^I from solution_Z of each branch, bit for bit
    p = cf.solution_params(1.0, 1.0)
    x = np.linspace(29.5 / 256, 29.5, 256)
    zi, zii = (cf.solution_Z(p, br, sec, x) for br in (Branch.I, Branch.II))
    want = [a * d - b * c for a, c, b, d in zip(zi.value.tolist(), zi.derivative.tolist(),
                                                zii.value.tolist(), zii.derivative.tolist())]
    walks = []
    real = specfun.kummer_walk
    monkeypatch.setattr(specfun, "kummer_walk", lambda *args: walks.append(args) or real(*args))
    got = cf.wronskian_Z(p, sec, x)
    assert len(walks) == 1
    assert [(v.real.hex(), v.imag.hex()) for v in got.tolist()] == \
        [(v.real.hex(), v.imag.hex()) for v in want]


def test_intertwining_relations():
    # with the system's derivatives the relations hold by construction, so
    # take the independent ones, dM/dy = (a/b) M(a+1, b+1; y)
    for m, omega in FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.logspace(-2, math.log10(25.0 / omega), 30)
        wx = potential.superpotential(x, m)
        for br in Branch:
            zp = series_solution_Z(p, br, Sector.PLUS, x)
            zm = series_solution_Z(p, br, Sector.MINUS, x)
            sc = np.maximum(1.0, np.abs(zp.value) + np.abs(zm.value))
            up = np.abs((zm.derivative + wx * zm.value) - 1j * omega * zp.value) / sc
            dn = np.abs((zp.derivative - wx * zp.value) - 1j * omega * zm.value) / sc
            assert np.max(up) < 1e-8
            assert np.max(dn) < 1e-8


def test_susy_map_matches_direct_solution():
    p = cf.solution_params(1.0, 1.0)
    x = np.logspace(-2, math.log10(25.0), 40)
    for br in Branch:
        zm = cf.solution_Z(p, br, Sector.MINUS, x)
        zp = cf.solution_Z(p, br, Sector.PLUS, x)
        mapped = cf.susy_map(p, zm, Sector.MINUS)
        sc = np.maximum(1.0, np.abs(zp.value))
        assert np.max(np.abs(mapped.value - zp.value) / sc) < 1e-12
        assert np.max(np.abs(mapped.derivative - zp.derivative) / sc) < 1e-12
        back = cf.susy_map(p, zp, Sector.PLUS)
        assert np.max(np.abs(back.value - zm.value) / np.maximum(1.0, np.abs(zm.value))) < 1e-12


def test_susy_map_round_trip():
    p = cf.solution_params(2.0, 0.5)
    x = np.linspace(0.5, 6.0, 12)
    z0 = cf.solution_Z(p, Branch.II, Sector.MINUS, x)
    rt = cf.susy_map(p, cf.susy_map(p, z0, Sector.MINUS), Sector.PLUS)
    sc = np.maximum(1.0, np.abs(z0.value))
    assert np.max(np.abs(rt.value - z0.value) / sc) < 1e-13
    assert np.max(np.abs(rt.derivative - z0.derivative) / sc) < 1e-13


def test_hermite_lambda_identity_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = 10.0 ** rng.uniform(-1.5, 1.5)
        omega = 10.0 ** rng.uniform(-1.5, 1.5)
        p = cf.solution_params(m, omega)
        assert cf.hermite_lambda(p, 1) == -4.0 * p.a1
        assert cf.hermite_lambda(p, 2) == -4.0 * p.a2
    with pytest.raises(InvalidParams):
        cf.hermite_lambda(cf.solution_params(1.0, 1.0), 3)


@pytest.mark.parametrize("m, omega", [(1e200, 1e300), (1e160, 1e200), (1e-160, 1e-300)])
def test_hermite_lambda_is_minus_four_a_wherever_eta_is_normal(m, omega):
    # m^2 passes the largest double at the first two and is subnormal at the
    # third, while eta (5e99, 5e119, 5e-21) is normal: 2 m^2/omega is formed
    # from the mantissas and exponents, as eta is
    p = cf.solution_params(m, omega)
    assert cf.hermite_lambda(p, 1) == -4.0 * p.a1
    assert cf.hermite_lambda(p, 2) == -4.0 * p.a2
    # eta = 1e308 is a double, 4 eta is not: the typed refusal, not -inf j
    with pytest.raises(DoubleRangeExceeded, match="double range"):
        cf.hermite_lambda(cf.solution_params(1e200, 5e91), 1)


def test_a_point_where_2_omega_x_underflows_past_eta_1e307():
    # |y| = 2 omega x is 0: 16 eta alone is inf past eta ~ 1.12e307, and the
    # walk's norm weight is formed as 16 (eta s) = 0, not (16 eta) s = NaN
    walk = highprec.kummer_walk(5e307, [0.0])
    assert walk.p == walk.q == [1.0 + 0j]
    z = cf.solution_Z(cf.solution_params(1.0, 1e-308), Branch.I, Sector.MINUS, 1e-100)
    assert z.value == PHASE_M4


@pytest.mark.parametrize("m, omega, x", [(60.0, 1.0, 29.0), (65.0, 1.0, 29.0),
                                         (1000.0, 7.0, 1.0 / 14.0)])
def test_a_wronskian_past_the_double_range_is_typed(m, omega, x):
    # both branches' Z and dZ are doubles, but Z^I dZ^II is not
    p = cf.solution_params(m, omega)
    for br in Branch:
        cf.solution_Z(p, br, Sector.MINUS, x)
    with pytest.raises(DoubleRangeExceeded, match="double range"):
        cf.wronskian_Z(p, Sector.MINUS, x)


def test_constants_past_the_double_range_are_typed():
    # c2^II = sqrt(2 omega) e^{i pi/4}/(2 m) and the exact Wronskian pass the
    # largest double at m = 1e-308, as solution_Z's branch II already refuses
    for call in (lambda: cf.coupling_constants(cf.solution_params(1e-308, 1e3), Branch.II),
                 lambda: cf.wronskian_exact(cf.solution_params(1e-308, 7.0), Sector.PLUS)):
        with pytest.raises(DoubleRangeExceeded, match="double range"):
            call()


def test_a_susy_image_past_the_double_range_is_typed():
    # W Z = -1e450 at x = 1e-300: the image is not a double, nor NaN
    p = cf.solution_params(1.0, 1.0)
    sample = cf.SolutionSample(1e-300, 1e300 + 0j, 1e300 + 0j)
    for sector in Sector:
        with pytest.raises(DoubleRangeExceeded, match="double range"):
            cf.susy_map(p, sample, sector)


def test_small_x_limits():
    x0 = 1e-10
    for m, omega in FAMILIES:
        p = cf.solution_params(m, omega)
        for sec in Sector:
            zi = cf.solution_Z(p, Branch.I, sec, x0)
            assert abs(complex(zi.value) - PHASE_M4) < 1e-4
            zii = cf.solution_Z(p, Branch.II, sec, x0)
            want = PHASE_M4 * sec.sign * 1j * cf.coupling_constants(p, Branch.II).c2
            assert abs(complex(zii.value) - want) < 1e-4


def test_solution_solves_schrodinger_pointwise():
    p = cf.solution_params(1.0, 1.0)
    x = np.array([0.5, 1.0, 2.0, 5.0, 12.0])
    for br in Branch:
        for sec in Sector:
            res = oracle.residual_schrodinger(
                lambda xx: cf.solution_Z(p, br, sec, xx).value,
                lambda xx: potential.V(xx, 1.0, sec),
                p.omega * p.omega, x)
            assert np.max(res) < 1e-7


def test_domain_and_type_guards():
    p = cf.solution_params(1.0, 1.0)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            cf.solution_Z(p, Branch.I, Sector.MINUS, bad)
    with pytest.raises(InvalidParams):
        cf.solution_Z(p, Branch.I, "minus", 1.0)
    with pytest.raises(InvalidParams):
        cf.susy_map(p, cf.solution_Z(p, Branch.I, Sector.MINUS, 1.0), "minus")
    with pytest.raises(InvalidParams):
        cf.coupling_constants(p, "I")
    # one point past the series bound, 2 omega x = 61 > 60, refuses the call
    for xs in (30.5, np.array([1.0, 30.5])):
        with pytest.raises(SeriesRangeExceeded):
            cf.solution_Z(p, Branch.II, Sector.PLUS, xs)
    for shape in ((), (0,), (1,), (2, 2)):
        xs = np.full(shape, 2.5)
        for br in Branch:
            z = cf.solution_Z(p, br, Sector.MINUS, xs)
            assert np.shape(z.value) == np.shape(z.derivative) == shape
            assert all(np.shape(r) == shape for r in cf.components(p, br, xs))


def _solution(p, x):
    return cf.solution_Z(p, Branch.I, Sector.MINUS, x)


def _deriv(p, x):
    return chf_1f1_deriv(p.a1, 0.5, cf.y_of_x(x, p.omega))


@pytest.mark.parametrize("m, omega, x, evaluate", [
    # the 1F1 sum itself is past the largest double
    pytest.param(120.0, 0.5, 14.0, _solution, id="120.0-0.5-14.0"),
    # branch I's MINUS derivative overflows in assembly
    pytest.param(102.0, 0.5, 12.0, _solution, id="102.0-0.5-12.0"),
    # the components overflow
    pytest.param(102.5, 0.5, 12.0, _solution, id="102.5-0.5-12.0"),
    # (a/b) 1F1(a+1, b+1; y) overflows in the product
    pytest.param(102.5, 0.5, 12.0, _deriv, id="deriv-102.5-0.5-12.0"),
])
def test_values_beyond_the_double_range_raise_a_typed_error(m, omega, x, evaluate):
    p = cf.solution_params(m, omega)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for xs in (x, np.array([1.0, x])):
            with pytest.raises(DoubleRangeExceeded, match="double range") as exc:
                evaluate(p, xs)
            assert isinstance(exc.value, OverflowError)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_an_overflow_error_from_the_math_modules_is_reported_as_double_range(monkeypatch):
    # cmath and math raise OverflowError where arithmetic would give inf:
    # both reach the caller as the one typed error, scalar or array
    def boom(*args):
        raise OverflowError("math range error")

    p = cf.solution_params(1.0, 1.0)
    monkeypatch.setattr(cmath, "exp", boom)
    for xs in (2.5, np.array([1.0, 2.5])):
        with pytest.raises(DoubleRangeExceeded, match="double range") as exc:
            cf.solution_Z(p, Branch.I, Sector.MINUS, xs)
        assert isinstance(exc.value.__cause__, OverflowError)
