#!/usr/bin/env python3
"""Regenerate the frozen confluent-hypergeometric reference table.

Values are produced by ``mpmath.hyp1f1`` at 50 digits, from the exact
binary values of the float inputs.  ``mpmath`` is required here (as in
the tests) but is not a package dependency: the generator must share no
code with the evaluator under test, whose primary route is the
fixed-point series of :mod:`susy_ces.highprec`.  Two independent checks
gate the output:

* the contiguous relation M(a,b;z) - M(a-1,b;z) = (z/b) M(a,b+1;z),
  evaluated from three separate mpmath values at 50 digits;
* the fixed-point series summed at 500 fractional bits: every row must
  agree with it to within 1e-14 relative.

The committed table is this script's output, so every row is the
correctly rounded value and ``specfun/golden-table`` reads 0.

Run from the repository root:

    python3 scripts/make_golden.py
"""
from __future__ import annotations

import pathlib
import sys

import mpmath as mp

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from susy_ces.highprec import chf_series_fixed  # noqa: E402

OUT = ROOT / "src" / "susy_ces" / "golden" / "chf.csv"

# (a, b, z) triples: the solution families at assorted (m, omega), both
# imaginary-axis signs, the transformed (re z < 0) side, real arguments,
# and generic parameters with non-representable real parts.
ROWS = [
    (0.5j, 0.5, -2j),
    (0.5j, 0.5, -4j),
    (1 + 0.5j, 1.5, -4j),
    (0.5 + 0.5j, 1.5, -4j),
    (0.5 + 0.5j, 0.5, -4j),
    (1 + 1j, 2.5, -5j),
    (1 + 1j, 1.5, -1j),
    (0.5j, 0.5, -40j),
    (0.5 + 0.5j, 1.5, -40j),
    (0.5j, 0.5, -59j),
    (0.5j, 0.5, 40j),
    (2j, 0.5, 55j),
    (0.5 + 0.5j, 1.5, -15 + 5j),
    (1 + 1j, 2.5, -30 - 30j),
    (0.5j, 0.5, 7.0),
    (-0.3 + 0.2j, 0.5, -12.0),
    (0.7 + 0.3j, 1.2, 10 - 3j),
    (2j, 0.5, -55j),
    (0.25j, 0.5, -10j),
    (0.5 + 0.25j, 1.5, -10j),
    (1j, 0.5, -20j),
    (0.5 + 1j, 0.5, -20j),
    (1e-3j, 0.5, -3j),
    (0.5j, 0.5, 0.0),
]

# spot-check triples for the contiguous relation
CONTIG = [
    (0.5 + 0.5j, 0.5, -4j),
    (1 + 1j, 1.5, -25j),
    (0.7 + 0.3j, 1.2, 10 - 3j),
    (2j, 0.5, 40j),
]


def hyp1f1(a, b, z):
    with mp.workdps(50):
        return mp.hyp1f1(mp.mpc(a), mp.mpf(b), mp.mpc(z))


def reference(a, b, z) -> complex:
    return complex(hyp1f1(a, b, z))


def main() -> int:
    with mp.workdps(50):
        for a, b, z in CONTIG:
            a, b, z = mp.mpc(a), mp.mpf(b), mp.mpc(z)
            lhs = hyp1f1(a, b, z) - hyp1f1(a - 1, b, z)
            rhs = z / b * hyp1f1(a, b + 1, z)
            scale = max(abs(hyp1f1(a, b, z)), abs(rhs), 1)
            rel = float(abs(lhs - rhs) / scale)
            assert rel < 1e-40, f"contiguous relation violated at {(a, b, z)}: {rel:.3e}"
    print(f"contiguous relation ok on {len(CONTIG)} triples")

    lines = ["a_re,a_im,b,z_re,z_im,f_re,f_im"]
    worst = 0.0
    for a, b, z in ROWS:
        f = reference(a, b, z)
        cross = chf_series_fixed(complex(a), float(b), complex(z), bits=500)
        rel = abs(f - cross) / max(1.0, abs(f))
        worst = max(worst, rel)
        assert rel < 1e-14, f"fixed-point series disagrees at {(a, b, z)}: {rel:.3e}"
        a, z = complex(a), complex(z)
        lines.append(",".join("%.17g" % v for v in
                              (a.real, a.imag, float(b), z.real, z.imag, f.real, f.imag)))
    print(f"fixed-point cross-check ok, worst rel diff {worst:.3e}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(ROWS)} rows -> {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
