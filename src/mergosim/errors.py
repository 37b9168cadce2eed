"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class DimensionCapExceeded(SimulationError):
    """Requested configuration basis is larger than the dense-algebra cap."""


class LabelOutOfRange(SimulationError):
    """A grid label lies outside the integer lattice."""


class SingularCoulomb(SimulationError):
    """Unsoftened Coulomb evaluated on coincident particle coordinates."""


class CenterOutsideBox(SimulationError):
    """A trap center lies outside the simulation box."""


class ScheduleOutOfRange(SimulationError):
    """Schedule parameter outside [0, s1]."""


class NonHermitianHamiltonian(SimulationError):
    """An operator expected to be Hermitian is not."""


class UnnormalizedInput(SimulationError):
    """A state vector expected to be normalized is not."""


class NonuniformGrid(SimulationError):
    """A sample grid expected to be uniform is not."""


class InvalidPermutation(SimulationError):
    """A register permutation is not a bijection on its declared sets."""


class VanishingNorm(SimulationError):
    """(Anti)symmetrization annihilated the input state."""


class PairIndexOutOfRange(SimulationError):
    """A criterion references a nucleus index that does not exist."""


class ZeroProbabilityBranch(SimulationError):
    """Post-measurement state requested for a branch of probability zero."""


class Degenerate(SimulationError):
    """Coefficient denominator vanished (delta = pi/2 with p_suc = 1)."""


class MaxItersExceeded(SimulationError):
    """An iterative routine gave up: repeat-until-success before heralding
    success, or a Lanczos ground state whose residual stayed too large."""


class EmptySector(SimulationError):
    """Requested spin sector carries no weight in the state."""


class NodeExhausted(SimulationError):
    """A scattering-tree node hit its retry limit.

    Carries the failing node id and the partial run report so completed
    children remain inspectable.
    """

    def __init__(self, node_id, report=None):
        super().__init__(f"node {node_id!r} exhausted its retry budget")
        self.node_id = node_id
        self.report = report


class UnsupportedUnit(SimulationError):
    """Unit name unknown or conversion crosses dimension groups."""


class ConfigError(SimulationError):
    """Run configuration failed schema validation."""
