"""Analytic diffeomorphisms of R^d and the registry used by experiment configs.

All built-in maps act on the last axis of their input, so a single point is a
``(d,)`` array and a batch of points is ``(..., d)``.  Jacobian actions are
analytic for every built-in; user-supplied maps that omit them fall back to
central finite differences.  Every map's speed is the norm of ``inv_jvp``;
river also gives the factors of a ``coupling``, which only the iso maps' rule
reads.  Spiral and banana give the arc lengths of phi-lines in closed form,
and every 1-D map exactly; the other maps leave them to the rule.
"""

import math

import numpy as np

from .errors import DimensionError, DomainError
from .quadrature import _count, _sum_last

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
    """``dim`` as an int under ``_count``'s rule; DimensionError unless it is >= 1."""
    try:
        return _count("dim", dim, 1)
    except ValueError:
        raise DimensionError(f"dim must be a positive integer, got {dim}") from None


def _stack(*components):
    """The C-contiguous ``(..., d)`` array of d ``(...)`` components, broadcast."""
    out = np.empty(np.broadcast(*components).shape + (len(components),))
    for k, component in enumerate(components):
        out[..., k] = component
    return out


def _line_length(u0, q, c):
    """Integral over [0, 1] of sqrt((u0 + q t)^2 + c^2) dt, c >= 0, without cancellation.

    With u1 = u0 + q and S = sqrt(u^2 + c^2) it is (A + c^2 B) / 2, where
    A = (u1 S1 - u0 S0) / q = (S0 + S1) / 2 + (u0 + u1)^2 / (2 (S0 + S1)) and
    B = (asinh(u1 / c) - asinh(u0 / c)) / q.  The integrand is even in u,
    so u is reflected to u0 + u1 >= 0.  Where u keeps its sign, u0 >= 0 and
    B = log1p(q k / (u0 + S0)) / q with k = 1 + (u0 + u1) / (S0 + S1), which
    tends to k / (u0 + S0) as q tends to 0; where u changes sign, the two
    asinh terms have opposite signs and add.
    """
    u1 = u0 + q
    s0 = np.hypot(u0, c)
    s = s0 + np.hypot(u1, c)
    # c * c and u * u underflow on a line whose S0 + S1 (at least the largest
    # of |u0|, |u1| and c) is below 2^-500, and overflow past 2^512: a line
    # outside [2^-500, 2^500] is integrated scaled by 2^600 or 2^-600, which
    # a power of two does exactly, and its length scaled back.  A zero or
    # infinite line stays so, and the scaled call recurses no further.
    outside = (s < 2.0 ** -500) | (s > 2.0 ** 500)
    if outside.any() and (outside & (s > 0.0) & (s < np.inf)).any():
        scale = np.where(outside, np.where(s < 1.0, 2.0 ** 600, 2.0 ** -600), 1.0)
        return _line_length(scale * u0, scale * q, scale * c) / scale
    u = u0 + u1
    sign = np.copysign(1.0, u)
    u0, u1, q, u = sign * u0, sign * u1, sign * q, np.abs(u)
    c2 = c * c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (1.0 + u / s) / (u0 + s0)
        b = np.where(q != 0.0, np.log1p(q * x) / q, x)
        crossing = u0 * u1 < 0.0
        if crossing.any():
            b = np.where(crossing, (np.arcsinh(u1 / c) - np.arcsinh(u0 / c)) / q, b)
        length = 0.5 * (0.5 * s + 0.5 * u * u / s + np.where(c2 > 0.0, c2 * b, 0.0))
    # A zero speed (s = 0) leaves 0 / 0 behind; an overflow's NaN stays NaN.
    return np.where(s == 0.0, 0.0, length)


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
    coupling : callable, optional
        ``factors`` of an additive coupling layer (NICE) on the first
        coordinate, whose inverse is x_0 = y_0 + m(y_rest), x_rest =
        h(y_rest) for the rest y_rest (permute to couple another one).
        ``factors(y_rest, w_rest)`` gets ``(..., d - 1)`` points y_rest and
        a w_rest that broadcasts against them, 0-d batches included, and
        returns g = Dm w_rest, a new float array of the broadcast ``(...)``
        shape, and s = |Dh w_rest|^2, which broadcasts against g: the speed
        is sqrt((w_0 + g)^2 + s), which only ``isomaps``' rule reads.
    arc_length : callable, optional
        ``arc_length(y, w)``, the ``(...)`` l2 lengths of the curves
        ``inverse(y + t w)``, t in [0, 1], for y and w broadcast over
        ``(..., d)``; 0 where w = 0, and DomainError where ``speed`` raises
        it on the line.  Where it is set, every arc length and arc-length
        inversion calls it in place of the Gauss-Legendre rule, so it
        must be exact to rounding.  Defaults, for d = 1 only, to
        ``|inverse(y + w) - inverse(y)|``, exact because every 1-D
        diffeomorphism is monotone; for d > 1 it is None and the rule is used.
    """

    def __init__(self, dim, forward, inverse, jvp=None, inv_jvp=None,
                 name="custom", params=None, arc_length=None, coupling=None):
        self.dim = _positive_dim(dim)
        self.forward = forward
        self.inverse = inverse
        self.jvp = jvp if jvp is not None else _fd_jvp(forward)
        self.inv_jvp = inv_jvp if inv_jvp is not None else _fd_jvp(inverse)
        if arc_length is None and self.dim == 1:
            arc_length = self._monotone_length
        self.arc_length = arc_length
        self.coupling = coupling
        self.name = name
        self.params = dict(params) if params else {}

    def speed(self, y, w):
        """The ``(...)`` l2 norms of ``inv_jvp(y, w)``, with ``np.linalg.norm``'s bits."""
        return np.sqrt(_sum_last(np.square(self.inv_jvp(y, w))))

    def _monotone_length(self, y, w):
        """The default arc length of a 1-D map: its inverse is monotone."""
        return np.abs(self.inverse(y + w) - self.inverse(y))[..., 0]

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
    """Shear along a meandering channel: (x1 - beta sin x2, sinh(eta x2)).

    Defined where |sinh(eta x2)| < 2^511, whose square ``shear`` takes.
    """
    _require_finite("river", beta=beta, eta=eta)
    if beta <= 0 or eta <= 0:
        raise ValueError(f"river requires beta, eta > 0, got {beta}, {eta}")
    x2_max = math.asinh(2.0 ** 511) / eta

    def outside(far):
        if far.any():
            raise DomainError("river map is undefined where |sinh(eta x2)| >= 2^511")

    def forward(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        outside(np.abs(x2) >= x2_max)
        return _stack(x1 - beta * np.sin(x2), np.sinh(eta * x2))

    def inverse(y):
        y = np.asarray(y, dtype=float)
        y1, y2 = y[..., 0], y[..., 1]
        outside(np.abs(y2) >= 2.0 ** 511)
        x2 = np.arcsinh(y2) / eta
        return _stack(y1 + beta * np.sin(x2), x2)

    def jvp(x, v):
        x2, v2 = x[..., 1], v[..., 1]
        return _stack(v[..., 0] - beta * np.cos(x2) * v2,
                      eta * np.cosh(eta * x2) * v2)

    def shear(y, w, square):
        # (g, dx2), or (g, dx2^2) if square, with g = beta cos(x2) dx2,
        # dx2 = w2 / (eta sqrt(1 + y2^2)) and x2 = arcsinh(y2) / eta, for y2 and
        # w2 the last coordinates of y and w.  In place in fresh arrays, so g is
        # an array on 0-d input, where a ufunc without out= returns a scalar.
        dx = np.square(y[..., -1], out=np.empty(np.broadcast(y, w).shape[:-1]))
        dx += 1.0
        np.sqrt(dx, out=dx)
        dx *= eta
        np.divide(w[..., -1], dx, out=dx)
        g = np.arcsinh(y[..., -1], out=np.empty_like(dx))
        g /= eta
        np.cos(g, out=g)
        g *= beta
        g *= dx
        return g, np.square(dx) if square else dx

    def inv_jvp(y, w):
        g, dx2 = shear(y, w, False)
        return _stack(g + w[..., 0], dx2)

    def factors(y_rest, w_rest):
        return shear(y_rest, w_rest, True)

    return Diffeomorphism(2, forward, inverse, jvp, inv_jvp, name="river",
                          params={"beta": beta, "eta": eta}, coupling=factors)


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

    def arc_length(p, w):
        # The speed is beta sqrt(u^2 + wr^2) with u = r (wr + wt), and r is
        # linear in t: the line is in the domain iff r > 0 at both ends.
        r, wr = p[..., 0], w[..., 0]
        r1 = r + wr
        if (np.minimum(r, r1) <= 0.0).any():
            raise DomainError("spiral inverse requires positive radial coordinate")
        s = wr + w[..., 1]
        # r s and wr s overflow once r, r1 or |s| passes 2^512, before
        # _line_length could rescale.  The length is of degree 1 in (u0, q, c):
        # from 2^500 on, s and c are scaled by 2^-600 and the length back.
        big = np.maximum(np.maximum(r, r1), np.abs(s)) > 2.0 ** 500
        if big.any():
            m = np.where(big, 2.0 ** -600, 1.0)
            return beta * _line_length(r * (m * s), wr * (m * s), m * np.abs(wr)) / m
        return beta * _line_length(r * s, wr * s, np.abs(wr))

    return Diffeomorphism(2, forward, inverse, jvp, inv_jvp, name="spiral",
                          params={"beta": beta}, arc_length=arc_length)


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

    def arc_length(y, w):
        # The speed is sqrt(u^2 + w2^2) with u = w1 + 2 a y2 w2 + 2 a w2^2 t.
        w2 = w[..., 1]
        return _line_length(w[..., 0] + 2.0 * a * y[..., 1] * w2, 2.0 * a * w2 * w2,
                            np.abs(w2))

    return Diffeomorphism(2, forward, inverse, jvp, inv_jvp, name="banana",
                          params={"a": a, "z": z}, arc_length=arc_length)


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

    return Diffeomorphism(1, forward, inverse, jvp, inv_jvp,
                          name="sinh_shift_1d", params={})


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
