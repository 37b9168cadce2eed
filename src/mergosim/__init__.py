"""Desk-scale simulator of trap-assisted molecular merging.

Builds scheduled merge Hamiltonians on real-space integer lattices,
propagates few-particle density matrices, heralds merge success with a
symmetry-respecting weak measurement, orchestrates scattering trees
with repeat-until-success, and evaluates the Landau-Zener success
chain together with the block-encoding cost scalings.

Importing the package loads no submodule. Each public name below is
looked up in its defining submodule on every access (PEP 562), which
imports that submodule the first time, so a command line run loads
only the layers its command uses. Nothing is cached here: a name
rebound in its defining module is what ``mergosim.<name>`` returns.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("criteria", ("Bipartition", "GeometricCriterion", "SymmetrizedCriterion",
                  "bipartition", "symmetrize_criterion",
                  "validate_symmetric")),
    ("errors", ("SimulationError",)),
    ("evolution", ("DensityMatrix", "PropagationReport", "autocorrelation",
                   "ground_state", "propagate", "spectrum")),
    ("grid", ("Basis", "Configuration", "GridSpec", "ParticleSet",
              "enumerate_basis")),
    ("hamiltonian", ("OperatorBlock", "Schedule", "ScheduledHamiltonian",
                     "StructuredHamiltonian", "TrapSpec", "build_coulomb",
                     "build_kinetic", "build_point_charges", "build_trap",
                     "coulomb_diagonal", "point_charge_diagonal",
                     "trap_diagonal")),
    ("lzcost", ("AlphaFactors", "CostParams", "LZParams", "LZResult",
                "alpha_factors", "lcu_query_model", "p_landau_zener")),
    ("symmetry", ("Permutation", "SymmetryDeclaration", "antisymmetrize",
                  "generators", "group_elements", "permutation_matrix",
                  "symmetry_check")),
    ("tree", ("PumpChannel", "PropagationChannel", "RetryPolicy",
              "ScatterNode", "ScatterTree", "TreeRunReport",
              "channel_decompose", "plan_tree", "run_tree")),
    ("units", ("unit_convert",)),
    ("weakmeas", ("MeasurementBranches", "MeasurementOutcome", "TraceLog",
                  "WeakMeasurementSpec", "lambda_coefficients",
                  "measurement_branches", "p_success_weight",
                  "repeat_until_success", "spin_sector_project",
                  "weak_measure")),
) for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        # ``mergosim.<submodule>`` works as it did when the package
        # imported the submodules; the import binds it here
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
