#!/usr/bin/env python3
"""Run the scalar path of susy_ces on the standard library alone.

Checks that ``import susy_ces`` alone loads no submodule and that
``solution_params`` then loads neither ``oracle`` nor ``scattering``.
Then makes scalar calls through every layer that must not need numpy:
``solution_params``, ``solution_Z`` for both branches and both sectors,
``components``, ``wronskian_Z`` (both branches in one pass), ``susy_map``,
``y_of_x``, ``V``, ``superpotential``, ``oracle.integrate`` on a
``schrodinger_problem`` segment, the ladder's rung sample
``closedform._ladder_sample`` on the walk's pair at |y| = 40, which must be
``solution_Z``'s branch-I values bit for bit (one formula serves both), the
ladder's far-field pair ``specfun.asymptotic_pair(0.5, [100.0])`` against
``highprec.kummer_walk(0.5, [100.0])``, and the rung sample formed from
that pair's values, a subnormal component of the pair (the double nearest
its exact value, rounded once), a 39-point walk at s ~ 1e-250 that runs 4
pair loops and gives each point's lone value, and ``specfun.kummer_pair``'s
typed refusal of a negative s.  numpy is blocked in
``sys.modules`` first, so any import of it fails, and ``susy_ces.verify``
(which needs numpy) must stay unloaded.  Exits non-zero on any failure.

    PYTHONPATH=src python -S scripts/stdlib_smoke.py

``-S`` keeps site-packages off the path; the script also runs without it.
"""
import math
import sys

sys.modules["numpy"] = None  # an import of numpy now raises ImportError

# the namespace is lazy: a call loads only the modules it uses
import susy_ces  # noqa: E402

loaded = [m for m in sys.modules if m.startswith("susy_ces.")]
assert loaded == [], loaded
susy_ces.solution_params(1.0, 1.0)
assert "susy_ces.oracle" not in sys.modules and "susy_ces.scattering" not in sys.modules

from susy_ces import (Branch, Sector, V, components, integrate,  # noqa: E402
                      schrodinger_problem, solution_params, solution_Z,
                      superpotential, susy_map, wronskian_exact, wronskian_Z, y_of_x)
from susy_ces.closedform import _ladder_sample  # noqa: E402
from susy_ces.errors import InvalidParams  # noqa: E402
from susy_ces.highprec import kummer_walk  # noqa: E402
from susy_ces.specfun import FAR_TOL, asymptotic_pair, kummer_pair  # noqa: E402

OTHER = {Sector.PLUS: Sector.MINUS, Sector.MINUS: Sector.PLUS}

p = solution_params(1.0, 1.0)
for br in Branch:
    for sec in Sector:
        z = solution_Z(p, br, sec, 2.5)
        assert type(z.value) is complex and type(z.derivative) is complex
        back = susy_map(p, susy_map(p, z, sec), OTHER[sec])
        assert abs(back.value - z.value) <= 1e-12 * abs(z.value), (br, sec)
    assert all(type(r) is complex for r in components(p, br, 2.5))
assert y_of_x(2.5, 1.0) == -5j
assert type(V(2.5, 1.0, Sector.MINUS)) is float
assert type(superpotential(2.5, 1.0)) is float

# both branches from one walk: the Wronskian is its exact constant
for sec in Sector:
    wr = wronskian_Z(p, sec, 2.5)
    assert type(wr) is complex
    assert abs(wr - wronskian_exact(p, sec)) <= 1e-10 * abs(wr), (sec, wr)

# the ladder's sample on the walk's pair is solution_Z's branch I, bit for bit
walk = kummer_walk(0.5, [40.0])
sample = _ladder_sample(p, 40.0, -1.0 / math.sqrt(20.0), walk.p[0], walk.q[0])
want = (solution_Z(p, Branch.I, Sector.MINUS, 20.0).value.real,
        -solution_Z(p, Branch.I, Sector.PLUS, 20.0).value.imag)
assert (sample[0], sample[2]) == want, (sample, want)

# the integrator carries the closed form from x = 1 to x = 10
seed = solution_Z(p, Branch.I, Sector.MINUS, 1.0)
far = integrate(schrodinger_problem(1.0, 1.0, Sector.MINUS), 1.0, 10.0,
                seed.value, seed.derivative)
want = solution_Z(p, Branch.I, Sector.MINUS, 10.0).value
assert abs(far.value - want) <= 1e-7 * abs(want), (far.value, want)

# past the series range the ladder reads the pair from the large-|y| expansion
walk = kummer_walk(0.5, [100.0])
pair = asymptotic_pair(0.5, [100.0])
for got, want in zip(pair, (walk.p, walk.q)):
    assert type(got[0]) is complex
    assert abs(got[0] - want[0]) <= FAR_TOL * abs(want[0]), (got, want)

# a rung's (u, u'/omega, v, v'/omega) at |y| = 100, (m, omega) = (1, 1)
(pp,), (qq,) = pair
sample = _ladder_sample(p, 100.0, -1.0 / 50.0 ** 0.5, pp, qq)
assert len(sample) == 4 and all(type(v) is float for v in sample), sample

# a subnormal component is the double nearest its exact value, rounded once
walk = kummer_walk(0.14847481401591137, [4.66898648904844e-308])
assert walk.q[0].imag == -1.5563288296828135e-308, walk.q[0].hex()

# at tiny s each interior point's Horner sum is cut from its smallest
# component (Im Q ~ -s/3), so its state certifies it: 4 pair loops, all seeds
s = [1e-250 * k for k in range(1, 40)]
walk = kummer_walk(0.5, s)
assert walk.sums == walk.seeds == 4, walk[2:]
for x, vp, vq in zip(s, walk.p, walk.q):
    lone = kummer_walk(0.5, [x])
    assert (vp, vq) == (lone.p[0], lone.q[0]), x

# a negative s is a typed refusal, not a bare ValueError from the walk
try:
    kummer_pair(0.5, [-1.0])
except InvalidParams:
    pass
else:
    raise AssertionError("kummer_pair(0.5, [-1.0]) was not refused")

assert "susy_ces.verify" not in sys.modules
print(f"stdlib only: {len(sys.modules)} modules loaded")
