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
2. reads the MINUS sample at each rung as the real part of the branch-I
   closed form (V- is real, so that real part is a real solution on its
   own), its pair M(1/2 + i eta, 1/2 or 3/2; y) taken from the large-|y|
   expansion (:func:`susy_ces.specfun.asymptotic_pair_for`, whose
   log-Gamma terms are computed once per solve).  That pair is certified
   up to one exact factor per branch and a power of two, so each rung is
   the exact sample of some real solution, which is all step 4 needs;
3. reads the PLUS sample at each rung as the first-order SUSY image of
   the MINUS one (:func:`closedform.susy_map`), so the pair is exactly
   the *same* scattering state in both sectors and only one sector is
   evaluated.  The ladder operator maps the real Z_minus = u onto an
   imaginary Z_plus, whose real image is (v, v') = -Im (Z_plus, Z_plus');
   the rung is the phase of one ratio (:func:`_sector_difference`),
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
Convergence is declared from the data alone: the spread max - min of the
last three corrected values falls below ``tol``, with at least four
ladder points.  The wiggle alternates in sign, so the spread brackets
the limit where one successive difference may not.  It is reported as
``residual``, an error estimate rather than a proof: it covers the
error at m^2/omega from 0.02 to 4, but under-reads it by up to 1.6x at
m^2/omega = 8 and 16.  The bound above, at the last rung, is reported
as ``bound``: the accuracy the result is proven to have.  The correction
vanishes as W -> 0, so the known asymptotic limit is never assumed
anywhere in this module.
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .closedform import Branch, SolutionParams, SolutionSample, _solution, solution_params, susy_map
# solution_Z, integrate: only the benchmark tracer looks them up; they go with its wrapping by name
from .closedform import solution_Z  # noqa: F401
from .errors import DoubleRangeExceeded, InvalidParams, NotConverged
from .oracle import integrate  # noqa: F401
from .potential import Sector, superpotential
from .specfun import asymptotic_pair_for

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PhaseDifferenceResult", "phase_difference", "susy_phase_offset"]

#: rungs of the ladder when no x_limit is given: x_limit = x_match 2^14
_DEFAULT_DOUBLINGS = 14


class PhaseDifferenceResult(NamedTuple):
    """Ladder history and tail-corrected estimate of delta_minus - delta_plus.

    ``x_match`` is the ladder base :func:`default_x_match` (m, omega),
    derived, not chosen; the rungs sit at x_match 2^k.  ``raw`` holds the
    per-point differences d_k in [0, pi); ``accelerated`` the same rungs
    with the SUSY tail subtracted, one entry per rung; ``estimate`` its
    last entry; ``residual`` the spread max - min of its last three
    entries (the stopping measure and the error estimate, read from the
    data alone, not from any assumed limit; inf before three rungs);
    ``bound`` the proven bound arcsin(min(1, m^2/(omega^2 x))) on the
    last rung's distance from pi/2 (its rounding in doubles, a few eps,
    comes on top).  ``ode_steps`` and ``ode_rejected``
    are always 0: every rung is read from the closed form, and only the
    benchmark still reads them.
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
    ode_rejected: int = 0


def default_x_match(m: float, omega: float) -> float:
    """Ladder base max(20/omega, 2.5 m^2/omega^2, 0.275 eta^2/omega).

    Oscillatory, past the barrier, and with the first rung at |y| =
    4 omega x_match >= 1.1 eta^2, past the point where the large-|y|
    expansion's first term ratio |a (a + 1/2)|/|y| falls below 1; the third
    term is the largest only from m^2/omega ~ 36.  inf where it passes the
    largest double.  The ratio m/omega is squared, as omega^2 alone
    underflows to 0 from omega ~ 1e-162, and eta^2/omega is eta r^2/2.
    """
    r = m / omega
    r2 = r * r
    eta = 0.5 * (m * m) / omega
    return max(20.0 / omega, 2.5 * r2, 0.1375 * eta * r2)


def _sector_difference(u: float, du: float, v: float, dv: float, omega: float) -> float:
    """arg((u' + i omega u) / (v' + i omega v)) mod pi, in [0, pi).

    The phase difference of two real solutions sampled at one x: for
    sinusoids u ~ sin(omega x + a), v ~ sin(omega x + b) it is a - b mod
    pi, and the omega x and log terms common to both never form.
    """
    d = cmath.phase(complex(du, omega * u) / complex(dv, omega * v))
    if d < 0.0:
        d += math.pi
    return d


def _far_sample(p: SolutionParams, x: float, pair) -> SolutionSample:
    """Real part of the branch-I MINUS closed form at x, from the large-|y| expansion.

    ``pair`` is :func:`specfun.asymptotic_pair_for` (eta), built once per
    solve; the pair it returns is that of an exact solution, so the sample
    is that of a real solution of V-.  Raises SeriesRangeExceeded where the
    pair is not certified.
    """
    [[(z, dz)]] = _solution(p, (Branch.I,), (Sector.MINUS,), [x], pair)
    return SolutionSample(x, complex(z[0].real), complex(dz[0].real))


def phase_difference(m: float, omega: float, *, tol: float = 1e-3,
                     x_limit: float | None = None) -> PhaseDifferenceResult:
    """Tail-corrected phase-shift difference of the two sectors at energy omega^2.

    Reads one real MINUS solution, the real part of the branch-I closed
    form, at rungs x_match 2^k, k >= 1, with x_match =
    :func:`default_x_match`, every rung from the large-|y| expansion.  The
    PLUS sample at each rung is its SUSY image
    (:func:`closedform.susy_map`), not a second solution.  Raises
    :class:`NotConverged` (with the partial result attached as
    ``err.result``) if the ladder reaches ``x_limit`` before the last
    three values, each rung read against ``susy_phase_offset(W(x_k),
    omega)``, lie within ``tol`` of each other with at least four rungs
    taken.

    ``x_limit``: the ladder's one budget, the largest x a rung may reach,
    finite and not below the first rung 2 x_match; ``None`` means
    x_match 2^14, i.e. 14 rungs.  Raises :class:`DoubleRangeExceeded`
    where the first rung, or with ``None`` the last, is past the largest
    double.
    """
    if not (x_limit is None or 0.0 < x_limit < math.inf):
        raise InvalidParams(f"x_limit={x_limit!r} must be a positive finite real")
    if not (tol > 0):
        raise InvalidParams("tol must be positive")
    p = solution_params(m, omega)
    x_match = default_x_match(p.m, p.omega)
    if x_limit is None:
        x_limit = x_match * 2.0 ** _DEFAULT_DOUBLINGS
    if math.isinf(max(2.0 * x_match, x_limit)):
        raise DoubleRangeExceeded(
            f"the ladder's rungs x_match 2^k pass the largest double "
            f"({sys.float_info.max:.4g}) at m={m!r}, omega={omega!r}: "
            f"x_match = {x_match:.4g}")
    # rung k >= 1 sits at x_match 2^k <= x_limit: compare binary exponents,
    # then mantissas, so the count is exact and needs no loop
    (fm, em), (fl, el) = math.frexp(x_match), math.frexp(x_limit)
    n_rungs = el - em - (fm > fl)
    if n_rungs < 1:
        raise InvalidParams(f"x_limit={x_limit!r} is below the ladder's first rung "
                            f"x = {2.0 * x_match:.17g}")

    # the expansion's log-Gamma terms, computed once for every rung
    far = asymptotic_pair_for(p.a1.imag)
    xs: list[float] = []
    raws: list[float] = []
    accs: list[float] = []
    residual = math.inf
    converged = False
    for k in range(1, n_rungs + 1):
        xk = math.ldexp(x_match, k)
        zm = _far_sample(p, xk, far)
        zp = susy_map(p, zm, Sector.MINUS)
        # the ladder operator maps the real Z_minus onto an imaginary Z_plus,
        # and (v, v') = -Im (Z_plus, Z_plus') is its real image
        d = _sector_difference(zm.value.real, zm.derivative.real,
                               -zp.value.imag, -zp.derivative.imag, p.omega)
        xs.append(xk)
        raws.append(d)
        offset = susy_phase_offset(superpotential(xk, p.m), p.omega)
        accs.append(d - 0.5 * (offset - math.pi))
        if len(accs) >= 3:
            residual = max(accs[-3:]) - min(accs[-3:])
            if len(accs) >= 4 and residual < tol:
                converged = True
                break

    import numpy as np
    r = p.m / p.omega
    result = PhaseDifferenceResult(
        m=m, omega=omega, x_match=x_match,
        x=np.array(xs), raw=np.array(raws), accelerated=np.array(accs),
        estimate=accs[-1], residual=residual, converged=converged,
        bound=math.asin(min(1.0, r * (r / xs[-1]))))
    if not converged:
        raise NotConverged(
            f"phase difference not converged to {tol:g} within the ladder "
            f"(last residual {residual:.3g})", result=result)
    return result


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
    # (w - i omega)/(w + i omega) = (w^2 - omega^2 - 2 i omega w)/(w^2 + omega^2);
    # normalise -0.0 so the w -> 0 limit lands on +pi, matching the physical
    # approach through negative superpotential values
    im = -2.0 * omega * w
    if im == 0.0:
        im = 0.0
    return math.atan2(im, (w - omega) * (w + omega))
