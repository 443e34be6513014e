"""Closed-form solutions: assembly, independent-series agreement,
Wronskian, intertwining, eigenvalue identity, limits."""
import cmath
import math
import warnings

import numpy as np
import pytest

from susy_ces import closedform as cf
from susy_ces import oracle, potential, specfun
from susy_ces.closedform import PHASE_M4, PHASE_P4, Branch
from susy_ces.errors import DomainError, DoubleRangeExceeded, InvalidParams
from susy_ces.potential import Sector
from susy_ces.specfun import CHFParams, chf_1f1_deriv
from susy_ces.verify import series_components, wronskian_grid

FAMILIES = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))


def test_solution_params_fields():
    p = cf.solution_params(1.0, 1.0)
    assert p.a1 == 0.5j
    assert p.a2 == 0.5 + 0.5j
    assert p.b == 0.5
    assert p.energy == 1.0
    assert p.sqrt_2w == math.sqrt(2.0)
    q = cf.solution_params(1.3, 0.7)
    assert q.energy == 0.7 * 0.7
    assert q.a1 == complex(0.0, (0.5 * (1.3 * 1.3)) / 0.7)


def test_solution_params_validation():
    for m, omega in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                     (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidParams):
            cf.solution_params(m, omega)


def test_phase_constants():
    assert PHASE_M4 == pytest.approx(cmath.exp(-0.25j * math.pi), rel=1e-15)
    assert PHASE_P4 * PHASE_M4 == pytest.approx(1.0, rel=1e-15)
    assert PHASE_P4 ** 2 == pytest.approx(1j, rel=1e-15)


def test_y_of_x():
    assert complex(cf.y_of_x(1.5, 2.0)) == -6j
    x = np.array([0.5, 2.0])
    assert np.array_equal(cf.y_of_x(x, 1.0), -2j * x)


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
            assert np.array_equal(z.value, PHASE_M4 * (r1 + sg * r2))
            assert np.array_equal(z.derivative, PHASE_M4 * (d1 + sg * d2))


def test_one_point_matches_its_table_row_bit_for_bit():
    # a lone x runs the same 1-d numpy loops as a row of a grid
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
def test_two_series_per_point(branch, monkeypatch):
    # the derivatives come from the first-order system, not from M'
    calls = []
    real = specfun.chf_series_fixed
    monkeypatch.setattr(specfun, "chf_series_fixed",
                        lambda *args: calls.append(args) or real(*args))
    p = cf.solution_params(1.0, 1.0)
    cf.solution_Z(p, branch, Sector.PLUS, np.linspace(0.5, 20.0, 16))
    assert len(calls) == 2 * 16


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


def test_intertwining_relations():
    for m, omega in FAMILIES:
        p = cf.solution_params(m, omega)
        x = np.logspace(-2, math.log10(25.0 / omega), 30)
        wx = potential.superpotential(x, m)
        for br in Branch:
            zp = cf.solution_Z(p, br, Sector.PLUS, x)
            zm = cf.solution_Z(p, br, Sector.MINUS, x)
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
                p.energy, x)
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


def _solution(p, x):
    return cf.solution_Z(p, Branch.I, Sector.MINUS, x)


def _deriv(p, x):
    return chf_1f1_deriv(CHFParams(p.a1, 0.5), cf.y_of_x(x, p.omega))


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
