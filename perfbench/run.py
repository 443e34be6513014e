#!/usr/bin/env python3
"""Benchmark of susy-ces: three seeded workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # grid, probe, ladder

With ``--trace 0`` one process and one thread drive the library as a closed
loop (each operation starts when the previous one returns) through a fixed
number of input blocks, about ``--seconds`` of work on the reference machine,
then check a seeded sample of the outputs against mpmath outside the timed
region, and print the end-to-end metrics, scaled to the reference machine
speed by interleaved speed probes.  Set-up time is measured in fresh
interpreters first.  With ``--trace 1`` a fixed number of operations each
run twice, untraced and then with spans at every module boundary; the run
prints the per-layer metrics, the tracing overhead, and fails unless both
runs of every operation return bit-identical outputs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout and nowhere else; the
run exits with code 2 and no result if it is missing.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import PER_LAYER, Tracer, layer_metrics

# ``workloads`` imports susy_ces, so functions import it only after
# _import_library() has put the checkout's src/ first on sys.path.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end metrics: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
)
#: fresh interpreters timed for setup_s, after one that is discarded because
#: it also compiles the package's bytecode
SETUP_RUNS = 11
#: seconds one block of operations takes at the reference machine speed,
#: operations and speed probes together; a timed run takes --seconds worth
BLOCK_S = {"grid": 2.8, "probe": 2.9, "ladder": 5.0}
#: a traced run takes one block of inputs per this many seconds of --seconds
TRACE_S_PER_BLOCK = 5
#: a timed run interleaves one speed probe per this much elapsed time
SPEED_EVERY_S = 0.2
#: mean speed-probe time on the reference machine (2-core Intel Xeon,
#: Python 3.11.7, numpy 2.4.6); timings are reported at that speed
SPEED_REF_S = 0.0100


def speed_scale(speed: list[float]) -> float:
    """Factor that brings a time measured beside these probe times to the
    reference speed: SPEED_REF_S / mean probe time.

    The mean, not the median: when the machine switches between a fast and
    a slow state within a run, the library's total time averages over both,
    and so does the mean probe time, while the median picks one state.
    """
    return SPEED_REF_S / statistics.fmean(speed)


_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.thread_time()
import susy_ces
susy_ces.solution_params(1.0, 1.0)
print(repr(time.thread_time() - t0))
"""


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    pkg = SRC / "susy_ces"
    if not (pkg / "__init__.py").is_file():
        _die(f"no library source at {pkg}; run from the root of a susy-ces checkout")
    sys.path.insert(0, str(SRC))
    import susy_ces
    if Path(susy_ces.__file__).resolve().parent != pkg.resolve():
        _die(f"imported susy_ces from {susy_ces.__file__}, not from {pkg}")


def measure_setup(runs: int = SETUP_RUNS) -> tuple[list[float], list[float]]:
    """Seconds from ``import susy_ces`` to the first ``solution_params``, per
    child, and the times of speed probes run between the children."""
    out, speed = [], []
    for _ in range(runs + 1):
        speed += [speed_probe() for _ in range(3)]
        r = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                           capture_output=True, text=True, timeout=120, check=True)
        out.append(float(r.stdout.split()[-1]))
    return out[1:], speed


def provenance(seed: int) -> dict:
    import mpmath
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            st = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
            dirty = bool(st.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "click": importlib.metadata.version("click"),
            "mpmath": mpmath.__version__, "git_sha": sha, "git_dirty": dirty,
            "seed": seed}


def speed_probe() -> float:
    """Seconds for a fixed computation of the kinds the library runs.

    Complex arithmetic in a Python loop (the integrator), ufunc calls on
    small arrays (the double-double series) and big-integer products (the
    fixed-point series).  The machine's speed drifts by 10-60 % over minutes
    when other tenants load it.  The probe drifts with it, so scaling by
    its mean time (:func:`speed_scale`) removes much of that common factor.
    """
    t0 = time.thread_time()
    z, w = 0j, 1.0000001 + 1e-7j
    for _ in range(30000):
        z = z * w + 1.0
    a = np.ones(2)
    for _ in range(2500):
        a = a * 1.0000001 + 0.5
    n, mod = 3 ** 201, 1 << 640
    for k in range(1, 5000):
        n = (n * (n >> 320) + k) % mod
    return time.thread_time() - t0


def n_blocks(workload: str, seconds: float) -> int:
    """Blocks a timed run takes: about ``seconds`` at the reference speed."""
    return max(1, round(seconds / BLOCK_S[workload]))


def run_pass(workload: str, seed: int, seconds: float,
             speed: list[float]) -> list[tuple]:
    """Closed loop over the seeded inputs: (inputs, Outcome, latency_s) per operation.

    Takes a fixed number of whole blocks, :func:`n_blocks`, so that a seed
    gives the same operations, and the same work counts and failures, on
    every run and machine.  Speed probes run between operations, one per
    ``SPEED_EVERY_S`` elapsed, and their times are appended to ``speed``.
    """
    from workloads import BLOCK, WORKLOADS, inputs
    wl = WORKLOADS[workload]
    records = []
    start = time.perf_counter()
    for q in itertools.islice(inputs(workload, seed),
                              BLOCK[workload] * n_blocks(workload, seconds)):
        call = wl.prepare(q)
        t0 = time.thread_time()
        out = wl.run(call)
        records.append((q, out, time.thread_time() - t0))
        while len(speed) < (time.perf_counter() - start) / SPEED_EVERY_S:
            speed.append(speed_probe())
    return records


def paired_pass(workload: str, seed: int, n_ops: int) -> tuple[list, list, Tracer]:
    """The first ``n_ops`` operations, each run untraced and then traced.

    Running the two right after each other pairs them in time, so that the
    machine's drift does not read as tracing overhead.  Returns the
    untraced and the traced records, as :func:`run_pass` does, and the tracer.
    """
    from workloads import WORKLOADS, inputs
    wl = WORKLOADS[workload]
    plain, traced = [], []
    tracer = Tracer()
    for i, q in zip(range(n_ops), inputs(workload, seed)):
        call = wl.prepare(q)
        t0 = time.perf_counter()
        out = wl.run(call)
        plain.append((q, out, time.perf_counter() - t0))
        with tracer:
            t0 = time.perf_counter()
            out = tracer.operation(i, wl.span, wl.run, call)
            traced.append((q, out, time.perf_counter() - t0))
    return plain, traced, tracer


def warm_up(workload: str, seed: int) -> None:
    """One untimed operation on inputs outside the measured stream."""
    from workloads import WORKLOADS, block
    wl = WORKLOADS[workload]
    wl.run(wl.prepare(block(workload, seed, -1)[0]))


def _failures(records) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, o, _ in records:
        if o.failure is not None:
            out[o.failure] = out.get(o.failure, 0) + 1
    return out


def _passed(records) -> list[tuple]:
    return [r for r in records if r[1].failure is None]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    """Untraced end-to-end run.  Returns (result fields, report lines, metrics)."""
    from workloads import GRID_POINTS, check
    warm_up(workload, seed)
    speed: list[float] = []
    wall = time.perf_counter()
    records = run_pass(workload, seed, seconds=seconds, speed=speed)
    wall = time.perf_counter() - wall
    done = _passed(records)
    # latency over the operations the library answered: a refusal is not a
    # latency sample, a solve that misses pi/2 is
    lat = [t for _, o, t in records if o.answered]
    if not lat:
        _die(f"{workload}: the library answered none of {len(records)} operations")
    bad = check(workload, seed, [(q, o) for q, o, _ in done])
    scale = speed_scale(speed)
    busy = sum(t for _, _, t in records)
    good = len(done) - len(bad)
    raw = {"op_ms_p50": 1e3 * statistics.median(lat),
           "op_ms_p90": 1e3 * float(np.percentile(lat, 90)),
           "ops_per_s": len(records) / busy}
    metrics = {"op_ms_p50": raw["op_ms_p50"] * scale, "op_ms_p90": raw["op_ms_p90"] * scale,
               "ops_per_s": raw["ops_per_s"] / scale}
    p50, p90 = metrics["op_ms_p50"], metrics["op_ms_p90"]
    n = len(records)
    lines = [f"{workload}: {n} operations attempted, {n - good} failed, "
             f"{len(lat)} answered, in {busy:.3f} s of CPU time; the run took "
             f"{wall:.3f} s wall-clock",
             f"  machine speed: {len(speed)} speed probes, mean "
             f"{statistics.fmean(speed) * 1e3:.4g} ms (median "
             f"{statistics.median(speed) * 1e3:.4g} ms) against {SPEED_REF_S * 1e3:.4g} ms "
             f"on the reference machine; timings below are scaled by {scale:.4f}"]
    for why, k in sorted(_failures(records).items()):
        lines.append(f"  failed: {k} x {why}")
    for msg in bad:
        lines.append(f"  failed check: {msg}")
    if workload == "grid":
        lines.append(f"  grid_points_per_s = {GRID_POINTS * good / busy / scale:.6g} points/s "
                     f"({GRID_POINTS} points per request)")
    elif workload == "probe":
        lines.append(f"  probe_ms_p50 = {p50:.6g} ms, probe_ms_p90 = {p90:.6g} ms "
                     f"(n = {len(lat)} completed calls)")
    else:
        lines.append(f"  ladder_s_per_solve = {p50 / 1e3:.6g} s (median of n = {len(lat)} solves)")
    lines.append("  " + ", ".join(f"{k} = {metrics[k]:.6g} (unscaled {raw[k]:.6g})"
                                  for k in metrics) + f"; latency n = {len(lat)}")
    if len(lat) < 100:
        lines.append(f"  note: op_ms_p90 rests on {len(lat)} samples, fewer than 100")
    return {"correct": not bad, "attempted": n, "failed": n - good}, lines, metrics


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    """Each operation untraced, then traced.  Returns as :func:`measure`."""
    from workloads import BLOCK, check
    n_ops = BLOCK[workload] * max(1, int(seconds // TRACE_S_PER_BLOCK))
    warm_up(workload, seed)
    plain, traced, tracer = paired_pass(workload, seed, n_ops)
    differ = sum(a[1].output != b[1].output or a[1].failure != b[1].failure
                 for a, b in zip(plain, traced))
    done = _passed(traced)
    bad = check(workload, seed, [(q, o) for q, o, _ in done])
    t_plain = sum(t for _, _, t in plain)
    t_traced = sum(t for _, _, t in traced)
    raw = layer_metrics(tracer.spans)
    raw["trace.overhead_frac"] = t_traced / t_plain - 1.0
    metrics = {name: raw[name] for name, _, _ in PER_LAYER}
    n = len(traced)
    failed = n - len(done) + len(bad)
    lines = [f"{workload}: {n} operations traced ({len(tracer.spans)} spans), "
             f"{failed} failed; untraced {t_plain:.3f} s, traced {t_traced:.3f} s, "
             f"overhead {metrics['trace.overhead_frac']:+.2%}"]
    for why, k in sorted(_failures(traced).items()):
        lines.append(f"  failed: {k} x {why}")
    for msg in bad:
        lines.append(f"  failed check: {msg}")
    if differ:
        lines.append(f"  traced outputs differ from untraced ones in {differ} operations")
    near = metrics["closedform.solution_Z.ms_per_call_y_le_40"]
    far = metrics["closedform.solution_Z.ms_per_call_y_gt_40"]
    if near and far:
        lines.append(f"  cost cliff at |y| = 40: one-point solution_Z takes {near:.4g} ms "
                     f"on the double-double route, {far:.4g} ms on fixed point "
                     f"({near / far:.3g}x)")
    return {"correct": not bad and not differ, "attempted": n, "failed": failed}, lines, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=["grid", "probe", "ladder", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        _die("--seconds must be positive")
    _import_library()

    prov = provenance(args.seed)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    names = ["grid", "probe", "ladder"] if args.workload == "all" else [args.workload]
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    if not args.trace:
        setup, speed = measure_setup()
        scale = speed_scale(speed)
        value = statistics.median(setup) * scale
        result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        print(f"# setup_s = {value:.6g} s at reference speed (median of {len(setup)} "
              f"fresh interpreters: {', '.join(f'{v:.4f}' for v in setup)} s unscaled; "
              f"scaled by {scale:.4f} from {len(speed)} speed probes)")
    for w in names:
        fields, lines, metrics = (trace if args.trace else measure)(w, args.seed, args.seconds)
        for ln in lines:
            print("# " + ln)
        result["correct"] = result["correct"] and fields["correct"]
        result["attempted"] += fields["attempted"]
        result["failed"] += fields["failed"]
        prefix = f"{w}." if args.workload == "all" else ""
        result["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
