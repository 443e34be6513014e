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

``import susy_ces`` loads no submodule: every public name, and every
submodule named as an attribute, loads its module on first access (PEP
562).  A call therefore compiles only the modules it uses:
``solution_params`` loads ``closedform`` and the layers under it
(``specfun``, ``highprec``, ``potential``), not ``oracle`` or
``scattering``.  Every scalar call stays on the standard library; numpy
is imported when an array comes in or goes out, and by ``verify`` and
``cli``.
"""
import importlib

__version__ = "0.1.0"

#: each submodule and the public names the package exports from it
_EXPORTS = {
    "potential": (
        "Sector", "CriticalStructure", "V", "V_deriv",
        "V_from_superpotential", "superpotential", "superpotential_deriv",
        "ces_residual", "shape_invariance_gap", "critical_structure"),
    "closedform": (
        "Branch", "SolutionParams", "SolutionSample", "CouplingConstants",
        "solution_params", "coupling_constants", "y_of_x", "components",
        "solution_Z", "wronskian_Z", "wronskian_exact", "hermite_lambda",
        "susy_map"),
    "specfun": ("chf_1f1", "chf_1f1_deriv", "kummer_transform", "log_gamma", "load_golden_chf"),
    "oracle": (
        "ODEProblem", "ODESolution", "schrodinger_problem",
        "integrate", "frobenius_series_solution", "residual_schrodinger"),
    "scattering": ("PhaseDifferenceResult", "phase_difference", "susy_phase_offset"),
    "verify": ("CheckReport", "run_suite"),
    "errors": (
        "SusyCesError", "DomainError", "InvalidParams", "PoleAtNonPositiveInteger",
        "SeriesRangeExceeded", "NonConvergence", "StepSizeUnderflow",
        "MaxStepsExceeded", "NotConverged", "DoubleRangeExceeded"),
    "highprec": (),
    "_points": (),
    "cli": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
