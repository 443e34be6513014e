"""Inverse-power-law SUSY partner potentials with closed-form solutions.

Public layers:

* :mod:`susy_ces.potential` — the partner pair V_pm = W^2 +- W' and its
  exact structural identities (shape invariance, coefficient lock).
* :mod:`susy_ces.specfun` — confluent hypergeometric machinery for the
  complex arguments these solutions need, with honest refusal bounds.
* :mod:`susy_ces.closedform` — the solutions Z_pm in both independent
  branches, derivatives from the first-order system, Wronskians, the
  sector-exchange map.
* :mod:`susy_ces.oracle` — adaptive ODE integration, a Frobenius-series
  second opinion, finite-difference residuals: verification that shares
  no code with the closed form.
* :mod:`susy_ces.scattering` — the sector phase-shift difference, read
  against the closed-form SUSY tail.
* :mod:`susy_ces.verify` / :mod:`susy_ces.cli` — check suites and the
  ``susy-ces`` command-line tool.

Importing the package loads the standard library only, and every scalar
call of the layers above stays on it.  numpy is imported when an array
comes in or goes out, and by ``verify`` and ``cli``; ``CheckReport`` and
``run_suite`` are therefore loaded from ``verify`` on first access.
"""

__version__ = "0.1.0"

from .closedform import (Branch, CouplingConstants, SolutionParams,
                         SolutionSample, components, coupling_constants,
                         hermite_lambda, solution_Z, solution_params, susy_map,
                         wronskian_Z, wronskian_exact, y_of_x)
from .errors import (ArgumentTooSmall, DomainError, DoubleRangeExceeded, InvalidParams,
                     MaxStepsExceeded, NonConvergence, NotConverged,
                     PoleAtNonPositiveInteger, SeriesRangeExceeded, StepSizeUnderflow,
                     SusyCesError)
from .oracle import (ODEProblem, ODESolution, frobenius_series_solution,
                     integrate, residual_schrodinger, schrodinger_problem)
from .potential import (CriticalStructure, Sector, V, V_deriv,
                        V_from_superpotential, ces_residual, critical_structure,
                        shape_invariance_gap, superpotential,
                        superpotential_deriv)
from .scattering import PhaseDifferenceResult, phase_difference, susy_phase_offset
from .specfun import chf_1f1, chf_1f1_deriv, kummer_transform, load_golden_chf, log_gamma


def __getattr__(name: str):
    # PEP 562: verify imports numpy, so its names load on first access
    if name in ("CheckReport", "run_suite"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # potential
    "Sector", "CriticalStructure", "V", "V_deriv",
    "V_from_superpotential", "superpotential", "superpotential_deriv",
    "ces_residual", "shape_invariance_gap", "critical_structure",
    # closed form
    "Branch", "SolutionParams", "SolutionSample", "CouplingConstants",
    "solution_params", "coupling_constants", "y_of_x", "components",
    "solution_Z", "wronskian_Z", "wronskian_exact", "hermite_lambda",
    "susy_map",
    # specfun
    "chf_1f1", "chf_1f1_deriv", "kummer_transform", "log_gamma", "load_golden_chf",
    # oracle
    "ODEProblem", "ODESolution", "schrodinger_problem",
    "integrate", "frobenius_series_solution", "residual_schrodinger",
    # scattering
    "PhaseDifferenceResult", "phase_difference", "susy_phase_offset",
    # verification
    "CheckReport", "run_suite",
    # errors
    "SusyCesError", "DomainError", "InvalidParams", "PoleAtNonPositiveInteger",
    "ArgumentTooSmall", "SeriesRangeExceeded", "NonConvergence",
    "StepSizeUnderflow", "MaxStepsExceeded", "NotConverged", "DoubleRangeExceeded",
]
