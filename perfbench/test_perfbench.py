"""Minimum-scale self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks the schema of BENCHMARK.json against the metric names the code
prints, the output format of a run, that work counts repeat exactly for a
seed, that tracing leaves every output bit-identical, and that a run refuses
to report without the library's source.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_schema_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    assert ("setup_s", "s", "lower") in e2e
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layers == list(spans.PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert _NAME.match(m["name"]) and _UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    assert set(spans.COUNTS) <= {n for n, _, _ in spans.PER_LAYER}


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    for w in workloads.WORKLOADS:
        a = [q for _, q in zip(range(20), workloads.inputs(w, 5))]
        b = [q for _, q in zip(range(20), workloads.inputs(w, 5))]
        c = [q for _, q in zip(range(20), workloads.inputs(w, 6))]
        assert a == b and a != c


def test_failures_are_the_same_for_every_seed():
    # probe: 60 is a stratum boundary of |y|; ladder: outcomes follow m^2/omega
    for seed in range(1, 21):
        for b in range(3):
            ys = [q["y"] for q in workloads.block("probe", seed, b)]
            assert sum(y > 60.0 for y in ys) == 5
            rs = [q["m"] ** 2 / q["omega"] for q in workloads.block("ladder", seed, b)]
            assert rs == pytest.approx(workloads.LADDER_R, rel=1e-12)


def test_a_timed_run_takes_whole_blocks_whatever_the_speed():
    for w in workloads.WORKLOADS:
        assert run.n_blocks(w, 24) * run.BLOCK_S[w] == pytest.approx(24, rel=0.1)
        assert run.n_blocks(w, 0.01) == 1


def _paired_counts(workload: str, n_ops: int):
    plain, traced, tracer = run.paired_pass(workload, 3, n_ops)
    for s in tracer.spans:
        if s.parent >= 0:  # each child span lies inside its parent
            p = tracer.spans[s.parent]
            assert p.start <= s.start <= s.end <= p.end and p.op == s.op
    m = spans.layer_metrics(tracer.spans)
    return plain, traced, {k: m[k] for k in spans.COUNTS}


@pytest.mark.parametrize("workload,n_ops", [("grid", 1), ("probe", 8), ("ladder", 1)])
def test_counts_repeat_and_traced_outputs_are_bit_identical(workload, n_ops):
    plain, traced, counts = _paired_counts(workload, n_ops)
    plain2, traced2, counts2 = _paired_counts(workload, n_ops)
    assert counts == counts2
    outputs = [[r[1] for r in recs] for recs in (plain, traced, plain2, traced2)]
    assert all(o == outputs[0] for o in outputs)
    assert counts["closedform.solution_Z.calls"] >= 1
    if workload == "ladder":
        assert counts["oracle.steps"] > 0 and counts["scattering.solves"] == 1
    else:
        assert counts["oracle.steps"] == 0
        assert counts["closedform.series_evals_per_point"] == 4


def test_untraced_library_is_restored():
    from susy_ces import scattering, specfun
    before = (specfun.chf_series_dd, scattering.integrate)
    with spans.Tracer():
        assert specfun.chf_series_dd is not before[0]
    assert (specfun.chf_series_dd, scattering.integrate) == before


def test_checks_catch_a_wrong_value():
    q = next(q for q in workloads.inputs("probe", 3) if q["y"] <= 60.0)
    out = workloads.WORKLOADS["probe"].run(workloads.WORKLOADS["probe"].prepare(q))
    assert workloads.check("probe", 3, [(q, out)]) == []
    v, d = out.output
    wrong = out._replace(output=(v * (1 + 1e-8), d))
    assert len(workloads.check("probe", 3, [(q, wrong)])) == 1


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,metrics", [(0, run.END_TO_END), (1, spans.PER_LAYER)])
def test_run_prints_the_result_line(trace, metrics):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "probe",
                        "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert r.returncode == 0, r.stderr
    res = _last_json(r.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert isinstance(res["attempted"], int) and isinstance(res["failed"], int)
    assert list(res["metrics"]) == [n for n, _, _ in metrics]
    for name, unit, _ in metrics:
        assert res["metrics"][name]["unit"] == unit
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert r.returncode != 0
    assert "correct" not in r.stdout
