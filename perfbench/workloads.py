"""The benchmark's three workloads: seeded inputs, one operation each, output checks.

Inputs come in blocks.  Each block is a stratified sample of the workload's
input space, placed by ``random.Random("<workload>:<seed>:<block>")``, so
every block covers the space evenly and the mix of cheap and dear inputs is
nearly the same for every seed.  The library receives only the generated
numbers.

* ``grid``   batched ``table`` requests (256 points, |y| = 2 omega x over
  (0, 59]) through the CLI command in-process: both precision routes of
  ``highprec`` run in one request.
* ``probe``  single-point ``solution_Z`` calls with |y| over (0, 70]: the
  call that seeds the integrator and the ladder.  Points beyond |y| = 60
  are refused by the library today and count as failed operations; 60 is
  a stratum boundary, so every block holds exactly 5 of them.
* ``ladder`` ``phase_difference`` at its defaults, with omega over [1.2, 3]
  and m^2/omega on the fixed values LADDER_R; above 0.5 single solves take
  10 s or more.  The outcome of a solve depends on m^2/omega alone (omega
  only rescales x), so every block holds the same outcomes.  A solve
  passes when it converges within 1e-3 of pi/2; at m^2/omega = 0.5, the
  coupling of (m, omega) = (1, 2), it misses by 1.9e-3 today.

A run takes a fixed number of blocks, so for a given seed it makes the same
operations on every machine, and the same number of failures for every seed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from typing import Callable, NamedTuple

import click

from susy_ces import (Branch, NotConverged, Sector, SeriesRangeExceeded,
                      SusyCesError, phase_difference, solution_params,
                      solution_Z)
from susy_ces import cli

import reference

GRID_POINTS = 256
GRID_Y_MAX = 59.0
PROBE_Y_MAX = 70.0
#: acceptance tolerance on |estimate - pi/2| (criterion 07)
LADDER_TOL = 1e-3
#: m^2/omega of the solves in every ladder block
LADDER_R = (0.05, 0.2, 0.35, 0.5)
#: operations per block (the 35 probe strata put |y| = 60 on a boundary),
#: and checks per completed grid request
BLOCK = {"grid": 4, "probe": 35, "ladder": len(LADDER_R)}
GRID_CHECKS_PER_REQUEST = 2
PROBE_CHECKS = 48

_COMBOS = [(b, s) for b in ("I", "II") for s in ("plus", "minus")]


class Outcome(NamedTuple):
    """What one operation returned.

    ``output`` is compared bit for bit between an untraced and a traced
    pass; ``failure`` is None for an operation that passed; ``answered`` is
    False when the library refused or raised instead of returning a result.
    """

    output: object
    failure: str | None
    work: dict
    answered: bool = True


def _pairing(n: int, tag: str) -> list[int]:
    """A fixed permutation of the strata, the same for every seed."""
    return random.Random(tag).sample(range(n), n)


def _strata(rng: random.Random, order: list[int], lo: float, hi: float) -> list[float]:
    """One uniform draw in each of the equal strata of (lo, hi], in ``order``."""
    n = len(order)
    return [lo + (hi - lo) * (k + 1.0 - rng.random()) / n for k in order]


def block(workload: str, seed: int, b: int) -> list[dict]:
    """Block ``b`` of a workload's inputs: a Latin-hypercube sample.

    Which strata of the variables go together is fixed, so every block
    has the same design; the seed and the block index place each point
    within its stratum.  Runs cover whole blocks.
    """
    rng = random.Random(f"{workload}:{seed}:{b}")
    n = BLOCK[workload]
    if workload == "ladder":
        ws = _strata(rng, _pairing(n, "ladder:omega"), 1.2, 3.0)
        return [{"m": math.sqrt(r * w), "omega": w} for r, w in zip(LADDER_R, ws)]
    ms = _strata(rng, _pairing(n, f"{workload}:m"), 0.2, 2.0)
    ws = _strata(rng, _pairing(n, f"{workload}:omega"), 0.5, 3.0)
    combos = [_COMBOS[k % len(_COMBOS)] for k in _pairing(n, f"{workload}:combo")]
    if workload == "grid":
        return [{"m": m, "omega": w, "branch": b_, "sector": s,
                 "x_max": GRID_Y_MAX / (2.0 * w)}
                for m, w, (b_, s) in zip(ms, ws, combos)]
    ys = _strata(rng, _pairing(n, "probe:y"), 0.0, PROBE_Y_MAX)
    return [{"m": m, "omega": w, "branch": b_, "sector": s, "y": y,
             "x": y / (2.0 * w)}
            for m, w, (b_, s), y in zip(ms, ws, combos, ys)]


def inputs(workload: str, seed: int):
    """The endless seeded stream of operation inputs, block after block."""
    b = 0
    while True:
        yield from block(workload, seed, b)
        b += 1


# ---------------------------------------------------------------------------
# one operation per workload


def _grid(req: dict) -> Outcome:
    args = ["table", "--m", repr(req["m"]), "--omega", repr(req["omega"]),
            "--sector", req["sector"], "--branch", req["branch"],
            "--x-min", repr(req["x_max"] / GRID_POINTS),
            "--x-max", repr(req["x_max"]), "--points", str(GRID_POINTS)]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main.main(args, prog_name="susy-ces", standalone_mode=False)
    except (SystemExit, click.ClickException) as e:
        return Outcome(("error", repr(e)), f"table exited: {type(e).__name__}", {}, False)
    return Outcome(buf.getvalue(), None, {"points": GRID_POINTS})


def _probe(call: tuple) -> Outcome:
    p, branch, sector, x, y = call
    try:
        z = solution_Z(p, branch, sector, x)
    except SeriesRangeExceeded as e:
        return Outcome(("error", str(e)), "refused: SeriesRangeExceeded", {}, False)
    except SusyCesError as e:
        return Outcome(("error", repr(e)), f"error: {type(e).__name__}", {}, False)
    v, d = complex(z.value), complex(z.derivative)
    return Outcome((v, d), None, {"points": 1, "y": y})


def _ladder(pt: dict) -> Outcome:
    failure = None
    try:
        res = phase_difference(pt["m"], pt["omega"])
    except NotConverged as e:
        res, failure = e.result, "not converged"
    except SusyCesError as e:
        return Outcome(("error", repr(e)), f"error: {type(e).__name__}", {}, False)
    within = res.converged and abs(res.estimate - 0.5 * math.pi) <= LADDER_TOL
    if failure is None and not within:
        failure = f"converged, but more than {LADDER_TOL:g} from pi/2"
    output = (res.estimate.hex(), res.residual.hex(), res.converged, res.ode_steps,
              res.x.tobytes(), res.raw.tobytes(), res.accelerated.tobytes())
    x_end = float(res.x[-1]) if res.x.size else 0.0
    work = {"rungs": int(res.x.size), "x_end_wx": pt["omega"] * x_end,
            "within_tol": int(within)}
    return Outcome(output, failure, work)


def _probe_call(q: dict) -> tuple:
    # params are built outside the timed call: the operation is solution_Z
    return (solution_params(q["m"], q["omega"]), Branch(q["branch"]),
            Sector(q["sector"]), q["x"], q["y"])


class Workload(NamedTuple):
    run: Callable[[object], Outcome]
    prepare: Callable[[dict], object]   # untimed: inputs -> call arguments
    span: str                           # root span name of one operation


WORKLOADS = {
    "grid": Workload(_grid, lambda q: q, "cli.table"),
    "probe": Workload(_probe, _probe_call, "closedform.solution_Z"),
    "ladder": Workload(_ladder, lambda q: q, "scattering.phase_difference"),
}


# ---------------------------------------------------------------------------
# output checks, outside the timed region


def check(workload: str, seed: int, done: list[tuple[dict, Outcome]]) -> list[str]:
    """Check a seeded sample of completed outputs against the mpmath reference.

    Returns one line per operation whose output is wrong.  Ladder outputs
    are judged in full by the operation itself (converged, within LADDER_TOL).
    """
    rng = random.Random(f"check:{workload}:{seed}")
    bad = []
    if workload == "grid":
        for q, out in done:
            rows = list(csv.DictReader(io.StringIO(out.output)))
            if len(rows) != GRID_POINTS:
                bad.append(f"table printed {len(rows)} rows, not {GRID_POINTS}")
                continue
            errs = [_compare(q, float(r["x"]),
                             (complex(float(r["Z_re"]), float(r["Z_im"])),
                              complex(float(r["dZ_re"]), float(r["dZ_im"]))))
                    for r in rng.sample(rows, GRID_CHECKS_PER_REQUEST)]
            bad += [e for e in errs if e][:1]
    elif workload == "probe":
        for q, out in rng.sample(done, min(PROBE_CHECKS, len(done))):
            err = _compare(q, q["x"], out.output)
            if err:
                bad.append(err)
    return bad


def _compare(q: dict, x: float, got: tuple[complex, complex]) -> str | None:
    ref = reference.solution_Z(q["m"], q["omega"], q["branch"], q["sector"], x)
    err = max(reference.mismatch(g, r) for g, r in zip(got, ref))
    if err <= reference.REL_TOL:
        return None
    return (f"Z mismatch {err:.2e} at m={q['m']!r} omega={q['omega']!r} "
            f"branch={q['branch']} sector={q['sector']} x={x!r}")
