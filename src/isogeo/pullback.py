"""Closed-form Levi-Civita mappings of Euclidean pullback manifolds.

A diffeomorphism phi of R^d pulls the Euclidean structure back to a
Riemannian one whose geodesics are straight lines in phi-coordinates.  Every
mapping here is the corresponding closed form: map through phi, apply the
Euclidean rule, map back.
"""

from dataclasses import dataclass, field

import numpy as np

from .diffeos import Diffeomorphism
from .errors import DimensionError
from .quadrature import QuadratureConfig


def as_point(x, dim=None, name="point", batch=False):
    """Validate and return a finite 1-D float vector.

    With batch=True a ``(..., d)`` stack of such vectors is accepted too.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or (x.ndim > 1 and not batch):
        kind = "a 1-D vector or a stack of them" if batch else "a 1-D vector"
        raise DimensionError(f"{name} must be {kind}, got shape {x.shape}")
    if dim is not None and x.shape[-1] != dim:
        raise DimensionError(f"{name} has dimension {x.shape[-1]}, expected {dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries: {x}")
    return x


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector tagged with the point it is based at."""

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        base = as_point(self.base, name="base")
        vec = as_point(self.vec, dim=base.shape[0], name="vec")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vec", vec)

    @property
    def norm(self):
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class PullbackManifold:
    """A diffeomorphism plus the numerical configuration of its iso mappings.

    Instances are immutable and safe to share across threads; every mapping
    below is a pure function of its inputs.
    """

    diffeo: Diffeomorphism
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    @property
    def dim(self):
        return self.diffeo.dim


def _point_pair(M, x, y):
    x = as_point(x, M.dim, "x")
    y = as_point(y, M.dim, "y")
    return x, y


def lc_distance(M, x, y):
    """Pullback distance |phi(x) - phi(y)|."""
    x, y = _point_pair(M, x, y)
    return float(np.linalg.norm(M.diffeo.forward(x) - M.diffeo.forward(y)))


def lc_geodesic(M, x, y, t):
    """Geodesic point phi^-1((1-t) phi(x) + t phi(y)).

    t outside [0, 1] extends the geodesic where phi^-1 is defined.
    """
    x, y = _point_pair(M, x, y)
    a, b = M.diffeo.forward(x), M.diffeo.forward(y)
    return M.diffeo.inverse((1.0 - t) * a + t * b)


def lc_geodesic_velocity(M, x, y, t):
    """Time derivative of the geodesic, based at the geodesic point."""
    x, y = _point_pair(M, x, y)
    a, b = M.diffeo.forward(x), M.diffeo.forward(y)
    p = (1.0 - t) * a + t * b
    return TangentVector(M.diffeo.inverse(p), M.diffeo.inv_jvp(p, b - a))


def lc_exp(M, xi):
    """Exponential map phi^-1(phi(x) + D phi[xi])."""
    a = M.diffeo.forward(as_point(xi.base, M.dim, "base"))
    return M.diffeo.inverse(a + M.diffeo.jvp(xi.base, xi.vec))


def lc_log(M, x, y):
    """Logarithm D phi^-1[phi(y) - phi(x)], based at x."""
    x, y = _point_pair(M, x, y)
    a, b = M.diffeo.forward(x), M.diffeo.forward(y)
    return TangentVector(x, M.diffeo.inv_jvp(a, b - a))


def lc_transport(M, x, y, xi):
    """Parallel transport of xi from x to y: D phi^-1[D phi[xi]]."""
    x, y = _point_pair(M, x, y)
    if not np.array_equal(xi.base, x):
        raise ValueError("transported vector must be based at x")
    w = M.diffeo.jvp(x, as_point(xi.vec, M.dim, "vec"))
    return TangentVector(y, M.diffeo.inv_jvp(M.diffeo.forward(y), w))


def closed_form_barycentre(M, points):
    """Riemannian barycentre phi^-1(mean of phi(x_i))."""
    if len(points) == 0:
        raise ValueError("closed_form_barycentre requires a nonempty point list")
    pts = as_point(points, M.dim, "points", batch=True)
    if pts.ndim != 2:
        raise DimensionError(f"points must be a stack of 1-D vectors, got shape {pts.shape}")
    return M.diffeo.inverse(M.diffeo.forward(pts).mean(axis=0))
