"""Exception types shared across the library."""


class DimensionError(ValueError):
    """A point, vector, or matrix does not match the manifold dimension."""


class DomainError(ValueError):
    """A mapping was evaluated outside the domain where it is defined."""


class DegenerateCurveError(ValueError):
    """An operation on a geodesic is undefined because its endpoints coincide."""


class DegenerateBasisError(ValueError):
    """A transported tangent basis has a numerically singular Gram matrix."""


class NonConvergenceError(RuntimeError):
    """A scalar solve failed to bracket or converge within its iteration budget."""


class StallError(RuntimeError):
    """Backtracking line search could not find an acceptable step.

    Carries the best iterate seen so far (``best``) and the convergence
    trace up to the stall (``trace``), which it marks stalled.
    """

    def __init__(self, message, best, trace):
        super().__init__(message)
        trace.stalled = True
        self.best = best
        self.trace = trace
