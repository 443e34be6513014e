"""Reference values of the closed-form solutions, from ``mpmath.hyp1f1``.

Built from the component recipe of ``susy_ces.closedform._components``
(h = e^{-y/2}, s = y^{1/2} = sqrt(2 omega x) e^{-i pi/4}, y = -2 i omega x):

    branch I :  r1 = h M(a1, 1/2; y)           r2 = c2 h s M(a1+1, 3/2; y)
    branch II:  r1 = h s M(a1+1/2, 3/2; y)     r2 = c2 h M(a1+1/2, 1/2; y)
    Z = e^{-i pi/4} (r1 + i sign r2),  sign = +1 (plus), -1 (minus)

with a1 = i m^2 / (2 omega) and the branch coupling
c2 = 2 sqrt(2 omega) e^{i pi/4} a1 / m (I) or sqrt(2 omega) e^{i pi/4} / (2 m) (II).
Derivatives use dM/dy = (a/b) M(a+1, b+1; y) and dy/dx = -2 i omega.
``mpmath`` serves the benchmark only; the library never imports it.
"""
from __future__ import annotations

import mpmath as mp

#: agreement required of the library, relative to max(1, |reference|): the
#: golden-table tolerance of ``susy-ces verify``
REL_TOL = 1e-10


def solution_Z(m: float, omega: float, branch: str, sector: str, x: float,
               dps: int = 40) -> tuple[complex, complex]:
    """Z and dZ/dx at x, computed from the exact binary values of the inputs."""
    with mp.workdps(dps):
        m, w, x = mp.mpf(m), mp.mpf(omega), mp.mpf(x)
        y = mp.mpc(0, -2 * w * x)
        dy = mp.mpc(0, -2 * w)
        h = mp.exp(-y / 2)
        em4 = mp.expjpi(mp.mpf(-1) / 4)
        s = mp.sqrt(2 * w * x) * em4
        a1 = mp.mpc(0, m * m / (2 * w))
        if branch == "I":
            c2 = 2 * mp.sqrt(2 * w) / em4 * a1 / m
        else:
            c2 = mp.sqrt(2 * w) / em4 / (2 * m)

        def plain(a):
            M = mp.hyp1f1(a, 0.5, y)
            dM = a / mp.mpf(0.5) * mp.hyp1f1(a + 1, 1.5, y)
            return h * M, dy * h * (dM - M / 2)

        def halfpow(a):
            M = mp.hyp1f1(a, 1.5, y)
            dM = a / mp.mpf(1.5) * mp.hyp1f1(a + 1, 2.5, y)
            return h * s * M, dy * h * s * (M / (2 * y) - M / 2 + dM)

        if branch == "I":
            r1, dr1 = plain(a1)
            r2, dr2 = halfpow(a1 + 1)
        else:
            r1, dr1 = halfpow(a1 + mp.mpf(0.5))
            r2, dr2 = plain(a1 + mp.mpf(0.5))
        sg = mp.mpc(0, 1 if sector == "plus" else -1)
        z = em4 * (r1 + sg * c2 * r2)
        dz = em4 * (dr1 + sg * c2 * dr2)
        return complex(z), complex(dz)


def mismatch(got: complex, ref: complex) -> float:
    """|got - ref| / max(1, |ref|)."""
    return abs(got - ref) / max(1.0, abs(ref))
