"""Command-line front end.

Four subcommands:

* ``table``   — sample a potential and its closed-form solution on a grid
* ``verify``  — run the cross-check suites and report pass/fail per check
* ``phase``   — extract the tail-corrected sector phase-shift difference
* ``figures`` — write the standard superpotential/potential curve files

Exit codes: 0 success, 1 a failed ``verify`` check (the check ran but did
not meet its tolerance), 2 configuration or usage errors, and typed range
refusals (series bound, double range).
Output is deterministic; CSV uses LF line endings and floats are printed
with %.17g (full round-trip precision).
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .closedform import Branch, solution_Z, solution_params
from .errors import SusyCesError
from .potential import Sector, V, superpotential
from .scattering import phase_difference
from .verify import SUITES, run_suite

_SECTORS = {"plus": Sector.PLUS, "minus": Sector.MINUS}
_BRANCHES = {"I": Branch.I, "II": Branch.II}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _csv_text(header: list[str], rows: list[tuple[float, ...]]) -> str:
    """The header, then one line of %.17g values per row: no header name and
    no formatted float holds a comma, a quote or a line break, so no field
    needs quoting."""
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join([fmt % r for r in rows])


def _config_errors(f):
    """Map domain/parameter errors to exit code 2 with a clean message."""
    import functools

    @functools.wraps(f)
    def wrapped(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except SusyCesError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
    return wrapped


@click.group()
@click.version_option(version=__version__, prog_name="susy-ces")
def main():
    """Partner potentials, closed-form scattering solutions, verification."""


@main.command()
@click.option("--m", type=float, required=True, help="coupling m > 0")
@click.option("--omega", type=float, required=True, help="wave number; energy is omega^2")
@click.option("--sector", type=click.Choice(sorted(_SECTORS)), default="minus",
              show_default=True)
@click.option("--branch", type=click.Choice(sorted(_BRANCHES)), default="I",
              show_default=True)
@click.option("--x-min", type=float, default=0.1, show_default=True)
@click.option("--x-max", type=float, default=10.0, show_default=True)
@click.option("--points", type=int, default=50, show_default=True)
@click.option("--spacing", type=click.Choice(["linear", "log"]), default="linear",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write to a file instead of stdout")
@_config_errors
def table(m, omega, sector, branch, x_min, x_max, points, spacing, fmt, out):
    """Sample V and the closed-form solution (value, derivative) on a grid."""
    if points < 2:
        raise click.UsageError("--points must be >= 2")
    if not (0.0 < x_min < x_max) or not math.isfinite(x_max):
        raise click.UsageError("need 0 < --x-min < --x-max, finite")
    if spacing == "linear":
        x = np.linspace(x_min, x_max, points)
    else:
        x = np.logspace(math.log10(x_min), math.log10(x_max), points)
    sec = _SECTORS[sector]
    p = solution_params(m, omega)
    v = V(x, m, sec)
    z = solution_Z(p, _BRANCHES[branch], sec, x)
    header = ["x", "V", "Z_re", "Z_im", "dZ_re", "dZ_im"]
    cols = [x, v, z.value.real, z.value.imag, z.derivative.real, z.derivative.imag]
    rows = list(zip(*(c.tolist() for c in cols)))
    if fmt == "csv":
        _emit(_csv_text(header, rows), out)
    else:
        payload = {
            "m": m, "omega": omega, "sector": sector, "branch": branch,
            "rows": [dict(zip(header, r)) for r in rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)


@main.command()
@click.option("--suite", type=click.Choice([*SUITES, "all"]), default="all",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_config_errors
def verify(suite, fmt, out):
    """Run cross-check suites; exit 1 if any check fails."""
    reports = run_suite(suite)
    if fmt == "json":
        # a check that compared nothing reports inf, which JSON cannot carry
        payload = [{**r._asdict(), "max_error": r.max_error if math.isfinite(r.max_error)
                    else None} for r in reports]
        _emit(json.dumps(payload, indent=2) + "\n", out)
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name:38s} max_error={r.max_error:10.3e} "
                         f"tolerance={r.tolerance:8.1e}  {r.details}")
        n_fail = sum(not r.passed for r in reports)
        lines.append(f"{len(reports) - n_fail}/{len(reports)} checks passed")
        _emit("\n".join(lines) + "\n", out)
    if any(not r.passed for r in reports):
        sys.exit(1)


@main.command()
@click.option("--m", type=float, required=True)
@click.option("--omega", type=float, required=True)
@click.option("--tol", type=float, default=1e-3, show_default=True,
              help="stop at the first rung whose proven bound arcsin(m^2/(omega^2*x)) "
                   "on its distance from pi/2 is below tol; must exceed 2^-40")
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_config_errors
def phase(m, omega, tol, fmt, out):
    """Tail-corrected phase-shift difference between the two sectors."""
    res = phase_difference(m, omega, tol=tol)

    if fmt == "json":
        payload = {
            "m": res.m, "omega": res.omega, "x_match": res.x_match,
            "x": res.x.tolist(), "raw": res.raw.tolist(),
            "accelerated": res.accelerated.tolist(),
            "estimate": res.estimate,
            # inf before the third rung, which JSON cannot carry
            "residual": res.residual if math.isfinite(res.residual) else None,
            "converged": res.converged,
            "bound": res.bound,
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)
    elif fmt == "csv":
        rows = list(zip(res.x.tolist(), res.raw.tolist(), res.accelerated.tolist()))
        _emit(_csv_text(["x", "difference", "accelerated"], rows), out)
    else:
        lines = [f"phase-shift difference ladder, m={m:.17g}, omega={omega:.17g}, "
                 f"x_match={res.x_match:.17g}"]
        lines.append(f"{'x':>12s} {'difference':>20s} {'accelerated':>20s}")
        for x, d, acc in zip(res.x, res.raw, res.accelerated):
            lines.append(f"{x:12.1f} {d:20.12f} {acc:20.12f}")
        lines.append(f"estimate: {res.estimate!r}  residual: {res.residual:.3e}  "
                     f"bound: {res.bound:.3e}  converged: {res.converged}")
        _emit("\n".join(lines) + "\n", out)


@main.command()
@click.option("--out-dir", type=click.Path(file_okay=False), default="figures",
              show_default=True)
@click.option("--points", type=int, default=500, show_default=True)
@_config_errors
def figures(out_dir, points):
    """Write the standard curve files (superpotential and m=2 partner pair)."""
    if points < 2:
        raise click.UsageError("--points must be >= 2")
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    x = np.linspace(0.02, 5.0, points)
    files = {
        "fig1_w_m+1.csv": ("W", superpotential(x, 1.0)),
        "fig1_w_m-1.csv": ("W", superpotential(x, -1.0)),
        "fig2_vplus_m2.csv": ("V", V(x, 2.0, Sector.PLUS)),
        "fig2_vminus_m2.csv": ("V", V(x, 2.0, Sector.MINUS)),
    }
    for name, (col, ys) in sorted(files.items()):
        rows = list(zip(x.tolist(), ys.tolist()))
        (d / name).write_text(_csv_text(["x", col], rows))
        click.echo(f"wrote {d / name}")


if __name__ == "__main__":
    main()
