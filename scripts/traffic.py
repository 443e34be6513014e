#!/usr/bin/env python3
"""Line coverage of ``src/susy_ces`` under the traffic the package serves.

With a line tracer on every frame whose code lives in ``src/susy_ces``,
the script runs

* one seeded block of each benchmark workload of ``perfbench/workloads.py``
  (``grid``, ``probe`` and ``ladder``), through the workloads' own
  operations;
* every CLI subcommand: ``table``, ``phase``, ``figures`` (into a
  temporary directory) and ``verify --suite all``;

and then prints, for each module, the statements that none of these ran,
by the line each starts on.  Run it from anywhere in a checkout:

    python3 scripts/traffic.py

It takes about 3 s on a 2-core Xeon (Python 3.11).  The package is
imported from the checkout's ``src`` and the workloads from its
``perfbench``.  The script itself needs only the standard library (the
package and the workloads need what they need).
It raises if an operation raises or a CLI command exits non-zero; what it
finds unrun never fails it.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "susy_ces"
SEED = 1

hits: dict[str, set[int]] = defaultdict(set)


def _lines(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    # only the package's frames are traced line by line
    return _lines if frame.f_code.co_filename.startswith(str(PKG)) else None


def _cli(*args: str) -> None:
    """One CLI command in-process, its output discarded; raises unless it exits 0."""
    from susy_ces import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(list(args), prog_name="susy-ces", standalone_mode=False)
    except SystemExit as e:
        if e.code:
            raise RuntimeError(f"susy-ces {' '.join(args)} exited {e.code}") from None


def run_traffic() -> None:
    # imported under the tracer, so that module-level statements count
    import workloads

    for name, wl in workloads.WORKLOADS.items():
        for q in workloads.block(name, SEED, 0):
            wl.run(wl.prepare(q))
    _cli("table", "--m", "1", "--omega", "1")
    _cli("phase", "--m", "0.5", "--omega", "2")
    with tempfile.TemporaryDirectory() as out:
        _cli("figures", "--out-dir", out)
    _cli("verify", "--suite", "all")


def _statements(tree: ast.Module) -> list[tuple[int, int]]:
    """(first line, last line) of every statement but docstrings, decorators
    included.  A statement ran where any line of its span ran: the body of
    a compound statement runs only after its header, and a header with no
    line event of its own (``try:``) ran where its body did."""
    docs = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.add(body[0])
    return [(min([n.lineno] + [d.lineno for d in getattr(n, "decorator_list", [])]),
             n.end_lineno)
            for n in ast.walk(tree) if isinstance(n, ast.stmt) and n not in docs]


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for k, x in enumerate(lines):
        if start is None:
            start = x
        if k + 1 == len(lines) or lines[k + 1] != x + 1:
            parts.append(str(start) if start == x else f"{start}-{x}")
            start = None
    return ", ".join(parts)


def report() -> None:
    for path in sorted(PKG.glob("*.py")):
        seen = hits.get(str(path), set())
        stmts = _statements(ast.parse(path.read_text(), str(path)))
        missed = sorted(a for a, b in stmts if seen.isdisjoint(range(a, b + 1)))
        print(f"{path.name:14s} {len(missed):4d} of {len(stmts):4d} statements not run"
              + (f": {_ranges(missed)}" if missed else ""))


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    t0 = time.perf_counter()
    sys.settrace(_calls)
    try:
        run_traffic()
    finally:
        sys.settrace(None)
    print(f"traffic ran in {time.perf_counter() - t0:.1f} s (traced)")
    report()


if __name__ == "__main__":
    main()
