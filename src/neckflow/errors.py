"""Exception types shared across the package."""


class NeckflowError(Exception):
    """Base class for all package errors."""


class GeometryError(NeckflowError):
    """Invalid geometry input or out-of-chart evaluation."""


class MeshError(NeckflowError):
    """Mesh construction or validity failure."""


class MeshCapacityError(MeshError):
    """Requested resolution exceeds the vertex budget.

    The message names the smallest separation expected to fit the budget
    at the same target size and layer count.
    """


class SolverError(NeckflowError):
    """Nonlinear solve failed to reach the requested tolerance.

    A Newton failure's message names the last scaled residual and the
    regularization stage at which the iteration stagnated.
    """


class FitError(NeckflowError):
    """Degenerate data passed to a least-squares fit."""


class QuadratureError(NeckflowError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class BranchError(NeckflowError):
    """Operation not defined on the requested exponent branch."""
