"""Analytic diffeomorphisms of R^d and the registry used by experiment configs.

All built-in maps act on the last axis of their input, so a single point is a
``(d,)`` array and a batch of points is ``(..., d)``.  Jacobian actions and
pullback speeds are analytic for every built-in; user-supplied
diffeomorphisms that omit the Jacobian actions fall back to central finite
differences, and those that omit the speed to the norm of ``inv_jvp``.
"""

import math

import numpy as np

from .errors import DimensionError, DomainError
from .quadrature import _sum_last

TWO_PI = 2.0 * math.pi


def _fd_jvp(mapping):
    # Central differences with displacement 1e-6 * (1 + |x|), batch-safe.
    def jvp(x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v, axis=-1, keepdims=True)
        safe = np.where(nv > 0.0, nv, 1.0)
        h = 1e-6 * (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
        e = h / safe
        out = (mapping(x + e * v) - mapping(x - e * v)) / (2.0 * e)
        return np.where(nv > 0.0, out, 0.0)

    return jvp


def _positive_dim(dim):
    """``dim`` as an int; DimensionError unless it is a positive integral number."""
    if int(dim) != dim or dim < 1:
        raise DimensionError(f"dim must be a positive integer, got {dim}")
    return int(dim)


def _stack(*components):
    """The C-contiguous ``(..., d)`` array of d ``(...)`` components, broadcast."""
    out = np.empty(np.broadcast(*components).shape + (len(components),))
    for k, component in enumerate(components):
        out[..., k] = component
    return out


def _speed_out(y, w):
    """One float ``(...)`` array for a speed at y along w, 0-d for one point."""
    return np.empty(np.broadcast(y, w).shape[:-1])


def _require_finite(factory, **params):
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{factory} requires a finite {key}, got {value}")


class Diffeomorphism:
    """A smooth invertible map of R^d bundled with its Jacobian actions.

    Every callable acts on the last axis of ``(..., d)`` arrays, and the
    Jacobian actions broadcast the point against the vector.

    Parameters
    ----------
    dim : int
        Ambient dimension d.
    forward, inverse : callable
        The map and its inverse.
    jvp : callable, optional
        ``jvp(x, v)``, the Jacobian of ``forward`` at x applied to v.
        Defaults to central finite differences of ``forward``.
    inv_jvp : callable, optional
        ``inv_jvp(y, w)``, the Jacobian of ``inverse`` at y applied to w.
        Defaults to central finite differences of ``inverse``.
    speed : callable, optional
        ``speed(y, w)``, the ``(...)`` l2 norms of ``inv_jvp(y, w)``: the
        integrand of every arc length, evaluated at each quadrature node.
        Defaults to the norm of ``inv_jvp``, with the bits of ``np.linalg.norm``.
    """

    def __init__(self, dim, forward, inverse, jvp=None, inv_jvp=None,
                 name="custom", params=None, speed=None):
        self.dim = _positive_dim(dim)
        self.forward = forward
        self.inverse = inverse
        self.jvp = jvp if jvp is not None else _fd_jvp(forward)
        self.inv_jvp = inv_jvp if inv_jvp is not None else _fd_jvp(inverse)
        if speed is not None:
            self.speed = speed
        self.name = name
        self.params = dict(params) if params else {}

    def speed(self, y, w):
        """The default speed: the l2 norm of ``inv_jvp(y, w)``, with ``np.linalg.norm``'s bits."""
        return np.sqrt(_sum_last(np.square(self.inv_jvp(y, w))))

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"Diffeomorphism({self.name}({args}), dim={self.dim})"


def identity(dim=2):
    """The identity map; every operation reduces to its Euclidean form."""
    dim = _positive_dim(dim)

    def fwd(x):
        return np.asarray(x, dtype=float).copy()

    def vec(x, v):
        out = np.empty(np.broadcast(x, v).shape)
        out[...] = v
        return out

    return Diffeomorphism(dim, fwd, fwd, vec, vec, name="identity",
                          params={"dim": dim})


def river(beta=5.0, eta=0.25):
    """Shear along a meandering channel: (x1 - beta sin x2, sinh(eta x2))."""
    _require_finite("river", beta=beta, eta=eta)
    if beta <= 0 or eta <= 0:
        raise ValueError(f"river requires beta, eta > 0, got {beta}, {eta}")

    def forward(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return _stack(x1 - beta * np.sin(x2), np.sinh(eta * x2))

    def inverse(y):
        y = np.asarray(y, dtype=float)
        y1, y2 = y[..., 0], y[..., 1]
        x2 = np.arcsinh(y2) / eta
        return _stack(y1 + beta * np.sin(x2), x2)

    def jvp(x, v):
        x2, v2 = x[..., 1], v[..., 1]
        return _stack(v[..., 0] - beta * np.cos(x2) * v2,
                      eta * np.cosh(eta * x2) * v2)

    def inv_jvp(y, w):
        y2 = y[..., 1]
        dx2 = w[..., 1] / (eta * np.sqrt(1.0 + y2 ** 2))
        # w1 + beta cos(x2) dx2 at x2 = arcsinh(y2) / eta
        return _stack(w[..., 0] + beta * np.cos(np.arcsinh(y2) / eta) * dx2, dx2)

    def speed(y, w):
        # The operations of inv_jvp and of the norm, in place.
        y2 = y[..., 1]
        dx = np.divide(w[..., 1], eta * np.sqrt(1.0 + y2 ** 2), out=_speed_out(y, w))
        sq = np.square(dx)
        t = np.cos(np.arcsinh(y2) / eta)
        t *= beta
        dx *= t
        dx += w[..., 0]
        np.square(dx, out=dx)
        dx += sq
        return np.sqrt(dx, out=dx)

    return Diffeomorphism(2, forward, inverse, jvp, inv_jvp, name="river",
                          params={"beta": beta, "eta": eta}, speed=speed)


def spiral(beta=0.25):
    """Polar winding map (R/beta, (angle - R/beta) mod 2pi).

    The angle coordinate is reduced into [0, 2pi); geodesics are only valid
    between points whose images stay clear of the 0/2pi branch cut, which the
    library does not unwrap.  The map is undefined at the origin, and the
    inverse is restricted to positive radial coordinate.
    """
    _require_finite("spiral", beta=beta)
    if beta <= 0:
        raise ValueError(f"spiral requires beta > 0, got {beta}")

    def forward(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        radius = np.hypot(x1, x2)
        if np.any(radius == 0.0):
            raise DomainError("spiral map is undefined at the origin")
        angle = np.mod(np.arctan2(x2, x1), TWO_PI)
        r = radius / beta
        return _stack(r, np.mod(angle - r, TWO_PI))

    def inverse(p):
        p = np.asarray(p, dtype=float)
        r, theta = p[..., 0], p[..., 1]
        if np.any(r <= 0.0):
            raise DomainError("spiral inverse requires positive radial coordinate")
        radius, angle = beta * r, r + theta
        return _stack(radius * np.cos(angle), radius * np.sin(angle))

    def jvp(x, v):
        x1, x2 = x[..., 0], x[..., 1]
        radius = np.hypot(x1, x2)
        if np.any(radius == 0.0):
            raise DomainError("spiral map is undefined at the origin")
        radial = (x1 * v[..., 0] + x2 * v[..., 1]) / (beta * radius)
        # radius ** 2 as written: a numpy scalar's ** calls libm pow, an array's squares.
        return _stack(radial, (x1 * v[..., 1] - x2 * v[..., 0]) / radius ** 2 - radial)

    def inv_jvp(p, w):
        r, theta = p[..., 0], p[..., 1]
        if np.any(r <= 0.0):
            raise DomainError("spiral inverse requires positive radial coordinate")
        wr, wt = w[..., 0], w[..., 1]
        angle = r + theta
        c, s = np.cos(angle), np.sin(angle)
        rs, rc = r * s, r * c
        # beta ((c - r s) wr - r s wt, (s + r c) wr + r c wt)
        return beta * _stack((c - rs) * wr - rs * wt, (s + rc) * wr + rc * wt)

    def speed(p, w):
        # inv_jvp rotates beta (wr, r (wr + wt)) by the angle r + theta, so
        # its norm needs no cos or sin.
        r = p[..., 0]
        if np.any(r <= 0.0):
            raise DomainError("spiral inverse requires positive radial coordinate")
        wr = w[..., 0]
        t = np.add(wr, w[..., 1], out=_speed_out(p, w))
        t *= r
        np.square(t, out=t)
        t += np.square(wr)
        np.sqrt(t, out=t)
        t *= beta
        return t

    return Diffeomorphism(2, forward, inverse, jvp, inv_jvp, name="spiral",
                          params={"beta": beta}, speed=speed)


def banana(a=1.0 / 9.0, z=0.0):
    """Quadratic shear (x1 - a x2^2 - z, x2); the identity when a = z = 0."""
    _require_finite("banana", a=a, z=z)

    def forward(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return _stack(x1 - a * x2 ** 2 - z, x2)

    def inverse(y):
        y = np.asarray(y, dtype=float)
        y1, y2 = y[..., 0], y[..., 1]
        return _stack(y1 + a * y2 ** 2 + z, y2)

    def jvp(x, v):
        return _stack(v[..., 0] - 2.0 * a * x[..., 1] * v[..., 1], v[..., 1])

    def inv_jvp(y, w):
        return _stack(w[..., 0] + 2.0 * a * y[..., 1] * w[..., 1], w[..., 1])

    def speed(y, w):
        # sqrt((w1 + 2 a y2 w2)^2 + w2^2), the operations of inv_jvp and the norm.
        w2 = w[..., 1]
        t = np.multiply(2.0 * a * y[..., 1], w2, out=_speed_out(y, w))
        t += w[..., 0]
        np.square(t, out=t)
        t += np.square(w2)
        return np.sqrt(t, out=t)

    return Diffeomorphism(2, forward, inverse, jvp, inv_jvp, name="banana",
                          params={"a": a, "z": z}, speed=speed)


def sinh_shift_1d():
    """The 1D map sinh(x + 1), whose pullback slows geodesics down near -1."""

    def forward(x):
        return np.sinh(np.asarray(x, dtype=float) + 1.0)

    def inverse(y):
        return np.arcsinh(np.asarray(y, dtype=float)) - 1.0

    def jvp(x, v):
        return np.cosh(np.asarray(x, dtype=float) + 1.0) * v

    def inv_jvp(y, w):
        return w / np.sqrt(1.0 + np.asarray(y, dtype=float) ** 2)

    def speed(y, w):
        return np.abs(w[..., 0]) / np.sqrt(1.0 + y[..., 0] ** 2)

    return Diffeomorphism(1, forward, inverse, jvp, inv_jvp,
                          name="sinh_shift_1d", params={}, speed=speed)


_REGISTRY = {
    "identity": identity,
    "river": river,
    "spiral": spiral,
    "banana": banana,
    "sinh_shift_1d": sinh_shift_1d,
}


def registered_names():
    return sorted(_REGISTRY)


def make_diffeomorphism(name, params=None):
    """Instantiate a registered diffeomorphism from its name and parameter map."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(registered_names())
        raise KeyError(f"unknown geometry {name!r}; registered: {known}") from None
    return factory(**(params or {}))
