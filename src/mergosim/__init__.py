"""Desk-scale simulator of trap-assisted molecular merging.

Builds scheduled merge Hamiltonians on real-space integer lattices,
propagates few-particle density matrices, heralds merge success with a
symmetry-respecting weak measurement, orchestrates scattering trees
with repeat-until-success, and evaluates the Landau-Zener success
chain together with the block-encoding cost scalings.
"""

from .criteria import (Bipartition, GeometricCriterion, SymmetrizedCriterion,
                       bipartition, symmetrize_criterion, validate_symmetric)
from .errors import SimulationError
from .evolution import (DensityMatrix, PropagationReport, autocorrelation,
                        ground_state, propagate, spectrum)
from .grid import (Basis, Configuration, GridSpec, ParticleSet,
                   enumerate_basis, label_to_coord)
from .hamiltonian import (OperatorBlock, Schedule, ScheduledHamiltonian,
                          StructuredHamiltonian, TrapSpec, build_coulomb,
                          build_kinetic, build_point_charges, build_trap,
                          coulomb_diagonal, point_charge_diagonal,
                          trap_diagonal)
from .lzcost import (AlphaFactors, CostParams, LZParams, LZResult,
                     alpha_factors, lcu_query_model, p_landau_zener)
from .symmetry import (Permutation, SymmetryDeclaration, antisymmetrize,
                       generators, group_elements, permutation_matrix,
                       symmetry_check)
from .tree import (PumpChannel, PropagationChannel, RetryPolicy, ScatterNode,
                   ScatterTree, TreeRunReport, channel_decompose, plan_tree,
                   run_tree)
from .units import unit_convert
from .weakmeas import (MeasurementBranches, MeasurementOutcome, TraceLog,
                       WeakMeasurementSpec, lambda_coefficients,
                       measurement_branches, p_success_weight,
                       repeat_until_success, spin_sector_project,
                       weak_measure)

__version__ = "0.1.0"
