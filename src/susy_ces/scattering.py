"""The partner-potential phase-shift difference.

The potentials fall off like m^2/x, so outgoing waves carry the usual
slow logarithmic distortion: a real solution behaves asymptotically as

    u(x) ~ sin( omega x - eta log(2 omega x) + delta + o(1) ),
    eta = m^2 / (2 omega).

The observable is the *difference* of the two sectors' phases, read at
one x from one ratio of the two samples, so the omega x and log terms
common to both cancel before they are formed; what is left is a clean
(m/omega) x^{-1/2} tail plus O(1/x) oscillatory wiggle.

:func:`phase_difference` therefore:

1. places a doubling ladder x_k = x_match 2^k, k >= 1, with the base
   x_match = max(20/omega, 2.5 m^2/omega^2, 0.275 eta^2/omega) in the
   oscillatory region, past the barrier and past the large-|y|
   expansion's frontier (:func:`default_x_match`), so every rung has
   |y| = 2 omega x_k >= max(80, 1.1 eta^2), past the 1F1 series range;
2. reads one real solution of V- at each rung, u = Re Z^I_-, and its
   first-order SUSY image v = -Im Z^I_+, so both sectors carry the *same*
   scattering state (:func:`closedform._ladder_sample`, in real arithmetic
   on the pair M(1/2 + i eta, 1/2 or 3/2; y) of the large-|y| expansion
   :func:`susy_ces.specfun.asymptotic_pair`, one call for every rung, as
   the stop rule places them all before any is read).  That pair is
   certified up to one exact factor per branch and a power of two, so each
   rung is the exact sample of some real solution, which is all step 4 needs;
3. takes the phase of one ratio (:func:`_sector_difference`),
   d_k = arg((u' + i omega u) / (v' + i omega v)) mod pi, in [0, pi);
4. subtracts the tail the ladder operator's phase rotation predicts,
   A_k = d_k - (susy_phase_offset(W(x_k), omega) - pi)/2, which leaves
   only the O(eta/(omega x)) oscillatory wiggle.

Step 4 leaves an algebraic function of the one sample (u, u') at x_k:
with eps_k = W^2 u / ((W + i omega)(u' + i omega u)),

    A_k = pi/2 - arg(1 + eps_k),   |A_k - pi/2| <= arcsin(m^2/(omega^2 x_k)),

for any real solution u, since |eps_k| <= m^2/(omega^2 x_k).  So the
limit pi/2 follows from the SUSY map alone, whichever scattering state
is carried; what the data decide is how fast the rungs approach it.
The ladder stops on that bound: at the first rung where
arcsin(min(1, m^2/(omega^2 x_k))) < ``tol``, reported as ``bound``, the
accuracy the result is proven to have up to the rung's own rounding of a
few eps (so ``tol`` must exceed :data:`TOL_FLOOR`).  The bound halves with
each rung, so the ladder ends without a budget, and ``tol`` is its only
knob.  The spread of the last three rungs is reported as ``residual``, a
cross-check read from the data alone that steers nothing.  The limit pi/2
is a consequence of the identity, never an input.
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .closedform import _ladder_sample, solution_params
# solution_Z, susy_map, integrate: only the benchmark tracer looks them up by name
from .closedform import solution_Z, susy_map  # noqa: F401
from .errors import DoubleRangeExceeded, InvalidParams
from .oracle import integrate  # noqa: F401
from .specfun import FAR_TOL, asymptotic_pair

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PhaseDifferenceResult", "phase_difference", "susy_phase_offset"]

#: tol must exceed this.  ``bound`` covers the exact A_k of the sample read:
#: a pair within its FAR_TOL = 2^-40 certificate is still the exact sample
#: of some real solution, and the bound holds for every one.  It does not
#: cover the rung's own rounding in the ratio's phase and the offset, a few
#: eps (at most 2.2 eps, 4.8e-16, on 8,700 rungs of random couplings).  The
#: floor is FAR_TOL, the finest accuracy any value the ladder reads is
#: certified to; above it that rounding is under 1/1000 of tol.
TOL_FLOOR = FAR_TOL


class PhaseDifferenceResult(NamedTuple):
    """Ladder history and tail-corrected estimate of delta_minus - delta_plus.

    ``x_match`` is the ladder base :func:`default_x_match` (m, omega, eta),
    derived, not chosen; the rungs sit at x_match 2^k.  ``raw`` holds the
    per-point differences d_k in [0, pi); ``accelerated`` the same rungs
    with the SUSY tail subtracted, one entry per rung; ``estimate`` its
    last entry; ``bound`` the proven bound arcsin(min(1, m^2/(omega^2 x)))
    on the last rung's distance from pi/2 (its rounding in doubles, a few
    eps, comes on top), below ``tol``; ``residual`` the spread max - min of
    its last three entries (inf before three rungs), a cross-check from the
    data alone that no longer steers anything.  ``converged`` is always
    True and ``ode_steps`` always 0: the ladder returns only once its bound
    is below ``tol``, every rung is read from the closed form, and only the
    benchmark reads the two.
    """

    m: float
    omega: float
    x_match: float
    x: np.ndarray
    raw: np.ndarray
    accelerated: np.ndarray
    estimate: float
    residual: float
    converged: bool
    bound: float
    ode_steps: int = 0


def default_x_match(m: float, omega: float, eta: float) -> float:
    """Ladder base max(20/omega, 2.5 m^2/omega^2, 0.275 eta^2/omega).

    Oscillatory, past the barrier, and with the first rung at |y| =
    4 omega x_match >= 1.1 eta^2, past the point where the large-|y|
    expansion's first term ratio |a (a + 1/2)|/|y| falls below 1; the third
    term is the largest only from m^2/omega ~ 36.  inf where it passes the
    largest double.  The ratio m/omega is squared, as omega^2 alone
    underflows to 0 from omega ~ 1e-162, and eta^2/omega is eta r^2/2, with
    the ``eta`` of :func:`closedform.solution_params` (m^2 may pass the range).
    """
    r = m / omega
    r2 = r * r
    return max(20.0 / omega, 2.5 * r2, 0.1375 * eta * r2)


def _sector_difference(u: float, du: float, v: float, dv: float) -> float:
    """arg((u' + i omega u) / (v' + i omega v)) mod pi, in [0, pi), from du = u'/omega
    and dv = v'/omega.

    The phase difference of two real solutions sampled at one x: for
    sinusoids u ~ sin(omega x + a), v ~ sin(omega x + b) it is a - b mod
    pi, and the omega x and log terms common to both never form.
    """
    d = cmath.phase(complex(du, u) / complex(dv, v))
    if d < 0.0:
        d += math.pi
    return d


def phase_difference(m: float, omega: float, *, tol: float = 1e-3) -> PhaseDifferenceResult:
    """Tail-corrected phase-shift difference of the two sectors at energy omega^2.

    Reads one real MINUS solution, the real part of the branch-I closed
    form, at rungs x_match 2^k, k >= 1, with x_match =
    :func:`default_x_match`, every rung from the large-|y| expansion.  The
    PLUS sample at each rung is its SUSY image, not a second solution,
    both read by :func:`closedform._ladder_sample`.  Stops at the first
    rung whose proven bound arcsin(min(1, m^2/(omega^2 x_k))) is below
    ``tol``, which must exceed :data:`TOL_FLOOR`.

    The bound halves with each rung, so no budget is needed, and every
    rung is placed before any is read.  Raises :class:`DoubleRangeExceeded`
    where a rung, or its |y| = 2 omega x_k, is past the largest double.
    """
    if not (tol > TOL_FLOOR):
        raise InvalidParams(f"tol={tol!r} must be above the ladder's rounding floor "
                            f"TOL_FLOOR = 2^-40 = {TOL_FLOOR:.4g}")
    p = solution_params(m, omega)
    x_match = default_x_match(p.m, p.omega, p.a1.imag)

    # plan: the rungs, and their |y|, up to the first whose bound is below tol
    r = p.m / p.omega
    xs: list[float] = []
    ys: list[float] = []
    xk = 2.0 * x_match
    while True:
        # doubling is exact, and gives inf rather than raising past the range
        if math.isinf(y := 2.0 * p.omega * xk):
            raise DoubleRangeExceeded(
                f"the ladder's rungs x_match 2^k pass the largest double "
                f"({sys.float_info.max:.4g}) in x_k or in |y| = 2 omega x_k at "
                f"m={m!r}, omega={omega!r}: rung k = {len(xs) + 1}, x_match = {x_match:.4g}")
        xs.append(xk)
        ys.append(y)
        bound = math.asin(min(1.0, r * (r / xk)))
        if bound < tol:
            break
        xk *= 2.0

    # read: every rung's pair from one call, so its log-Gamma terms are computed once
    raws: list[float] = []
    accs: list[float] = []
    for xk, y, pp, qq in zip(xs, ys, *asymptotic_pair(p.a1.imag, ys)):
        # W(x_k)/omega; omega sqrt(x_k) <= max(omega, |y|/2) is a double
        w = -p.m / (p.omega * math.sqrt(xk))
        d = _sector_difference(*_ladder_sample(p, y, w, pp, qq))
        raws.append(d)
        accs.append(d - 0.5 * (_offset(w, 1.0) - math.pi))

    import numpy as np
    return PhaseDifferenceResult(
        m=m, omega=omega, x_match=x_match,
        x=np.array(xs), raw=np.array(raws), accelerated=np.array(accs),
        estimate=accs[-1],
        residual=max(accs[-3:]) - min(accs[-3:]) if len(accs) >= 3 else math.inf,
        converged=True, bound=bound)


def susy_phase_offset(w: float, omega: float) -> float:
    """Phase rotation the first-order ladder applies to a sinusoid.

    For a locally constant superpotential value w, mapping a real
    solution u -> (u' + w u)/omega shifts its phase so that
    2 (delta_minus - delta_plus) = arg((w - i omega)/(w + i omega))
    mod 2 pi.  As w -> 0 (the decaying superpotential far out) the
    offset tends to pi, i.e. a sector phase-shift difference of pi/2.
    """
    omega = float(omega)
    w = float(w)
    if not (math.isfinite(w) and math.isfinite(omega) and omega > 0.0):
        raise InvalidParams(f"w={w!r}, omega={omega!r} invalid")
    # the offset is homogeneous in (w, omega): where the larger of the two
    # is far from 1, both are scaled by one power of two (exact), so that
    # no product below leaves the double range
    big = max(abs(w), omega)
    if not 2.0 ** -500 <= big <= 2.0 ** 500:
        e = math.frexp(big)[1]
        w, omega = math.ldexp(w, -e), math.ldexp(omega, -e)
    return _offset(w, omega)


def _offset(w: float, omega: float) -> float:
    """:func:`susy_phase_offset` unchecked, where no product leaves the double range:
    on the ladder omega = 1 and |w| <= 1/sqrt(5), as x_k >= 5 m^2/omega^2."""
    # (w - i omega)/(w + i omega) = (w^2 - omega^2 - 2 i omega w)/(w^2 + omega^2);
    # normalise -0.0 so the w -> 0 limit lands on +pi, matching the physical
    # approach through negative superpotential values
    im = -2.0 * omega * w
    if im == 0.0:
        im = 0.0
    return math.atan2(im, (w - omega) * (w + omega))
