"""Geodesic submanifolds, tangent projections, and projected descent.

A geodesic submanifold here is the phi^-1 image of an affine subspace in
phi-coordinates: base point plus an orthonormal basis of the subspace
directions.  Parallel transport preserves that span, so the tangent space at
any member point is obtained by pushing the basis through the inverse
Jacobian.
"""

import numpy as np

from .descent import ConvergenceTrace
from .errors import DegenerateBasisError, DomainError, StallError
from .isomaps import _iso_exp, _iso_log_vecs
from .pullback import (TangentVector, as_point, lc_geodesic,
                       lc_geodesic_velocity)


class GeodesicSubmanifold:
    """phi^-1 image of an affine subspace: base point + orthonormal phi-basis."""

    def __init__(self, manifold, base, phi_basis):
        self.manifold = manifold
        self.base = as_point(base, manifold.dim, "base")
        B = np.asarray(phi_basis, dtype=float)
        if B.ndim != 2 or B.shape[0] != manifold.dim:
            raise ValueError(
                f"phi_basis must be ({manifold.dim}, m), got shape {B.shape}")
        gram = B.T @ B
        if not np.allclose(gram, np.eye(B.shape[1]), atol=1e-10):
            raise ValueError("phi_basis columns must be orthonormal to 1e-10")
        self.phi_basis = B
        self._phi_base = manifold.diffeo.forward(self.base)

    @property
    def subspace_dim(self):
        return self.phi_basis.shape[1]

    def params_of(self, x):
        """Affine coordinates of phi(x) - phi(base) in the basis."""
        x = as_point(x, self.manifold.dim, "x")
        return self.phi_basis.T @ (self.manifold.diffeo.forward(x) - self._phi_base)

    def point_at(self, s):
        """Member point with affine coordinates s (scalar allowed when m=1)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self.manifold.diffeo.inverse(self._phi_base + self.phi_basis @ s)

    def points_at(self, s):
        """Batch of member points, one per row of affine coordinates.

        For m = 1 each coordinate is ``s * B[j] + (phi_base[j] + 0.0)``,
        computed component-major, with the bits of ``phi_base + s @ B.T``:
        the k = 1 matmul gives +0.0 where the product is -0.0, and the
        ``+ 0.0`` makes the sums agree in every signed-zero case.
        """
        s = np.asarray(s, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.shape[-1:] != (1,) or self.subspace_dim != 1:
            return self.manifold.diffeo.inverse(self._phi_base + s @ self.phi_basis.T)
        s = s[..., 0]
        P = np.empty((self.manifold.dim,) + s.shape)
        for row, coef, base in zip(P, self.phi_basis[:, 0], self._phi_base + 0.0):
            np.multiply(s, coef, out=row)
            row += base
        return self.manifold.diffeo.inverse(np.moveaxis(P, 0, -1))

    def contains(self, x, tol=1e-8):
        x = as_point(x, self.manifold.dim, "x")
        return self._contains_phi(self.manifold.diffeo.forward(x), tol)

    def _contains_phi(self, a, tol=1e-8):
        """``contains`` of the member whose phi-image is a."""
        delta = a - self._phi_base
        resid = delta - self.phi_basis @ (self.phi_basis.T @ delta)
        return float(np.linalg.norm(resid)) <= tol

    def tangent_basis(self, x):
        """Transported basis U_x: inverse Jacobian applied to the phi-basis."""
        x = as_point(x, self.manifold.dim, "x")
        return self._tangent_basis_phi(self.manifold.diffeo.forward(x))

    def _tangent_basis_phi(self, a):
        """``tangent_basis`` at the point whose phi-image is a."""
        cols = self.manifold.diffeo.inv_jvp(
            np.broadcast_to(a, (self.subspace_dim, self.manifold.dim)),
            self.phi_basis.T)
        return cols.T


def tangent_projection(S, x, v):
    """l2-orthogonal projection of v onto the tangent space of S at x."""
    x = as_point(x, S.manifold.dim, "x")
    a = S.manifold.diffeo.forward(x)
    if not S._contains_phi(a):
        raise DomainError("x is not on the submanifold (membership tol 1e-8)")
    return TangentVector(x, _tangent_projection(S, a, v))


def _tangent_projection(S, a, v):
    """``tangent_projection(S, x, v).vec`` at the member x whose phi-image is a.

    v is validated here: it is a user gradient.
    """
    v = as_point(v, S.manifold.dim, "v")
    U = S._tangent_basis_phi(a)
    gram = U.T @ U
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > 1e14:
        raise DegenerateBasisError(
            "transported basis has a numerically singular Gram matrix")
    return U @ np.linalg.solve(gram, U.T @ v)


def l2pg_ird(S, f, grad_f, x0, cfg):
    """Projected-gradient iso-Riemannian descent over a geodesic submanifold.

    Iterates xi = P_x grad f(x), trial = iso_exp_x(-r xi), accepting the trial
    only if it strictly decreases f.  Stops once |P grad f| / f(x0) falls
    below cfg.tol (absolute when f(x0) <= 0) or the iteration cap is hit.
    Raises StallError carrying the best iterate when backtracking fails.

    x0 and each gradient are validated; the loop runs the steps of
    ``iso_exp`` and ``tangent_projection`` on float arrays, with one
    phi-image per iterate.
    """
    M = S.manifold
    x = as_point(x0, M.dim, "x0")
    a = M.diffeo.forward(x)
    if not S._contains_phi(a):
        raise DomainError("x0 is not on the submanifold")
    f_ref = float(f(x))
    denom = f_ref if f_ref > 0.0 else 1.0
    fx = f_ref
    vec = _tangent_projection(S, a, grad_f(x))
    norm = float(np.linalg.norm(vec))
    trace = ConvergenceTrace()
    trace.append(x, norm, cfg.r0, objective=fx)
    for _ in range(cfg.max_iters):
        if norm / denom < cfg.tol:
            trace.converged = True
            return x, trace
        r = cfg.r0
        for _ in range(cfg.max_backtracks):
            trial = _iso_exp(M, x, a, -r * vec)
            f_trial = float(f(trial))
            if f_trial < fx:
                break
            r *= cfg.c
        else:
            raise StallError(
                f"line search stalled at objective {fx:.6e}", x, trace)
        a = M.diffeo.forward(trial)
        if not S._contains_phi(a):
            raise DomainError("iterate drifted off the submanifold")
        x, fx = trial, f_trial
        vec = _tangent_projection(S, a, grad_f(x))
        norm = float(np.linalg.norm(vec))
        trace.append(x, norm, r, objective=fx)
    trace.converged = norm / denom < cfg.tol
    return x, trace


def iso_rank_r_approx(M, points, base, r):
    """Top-r left singular vectors of the iso-logarithm matrix at the base.

    Columns are orthonormal; signs are fixed so the largest-magnitude entry
    of each column is positive.
    """
    base = as_point(base, M.dim, "base")
    if len(points) == 0:
        raise ValueError("iso_rank_r_approx requires a nonempty point list")
    pts = as_point(points, M.dim, "points", batch=True).reshape(-1, M.dim)
    if not 1 <= r <= min(M.dim, len(pts)):
        raise ValueError(
            f"rank r must satisfy 1 <= r <= min(d, N) = "
            f"{min(M.dim, len(pts))}, got {r}")
    logs = _iso_log_vecs(M, base, pts)[0].T
    U, _, _ = np.linalg.svd(logs, full_matrices=True)
    return _positive_peaks(U[:, :r])


def _positive_peaks(Q):
    """Q with each column's sign set so its largest-magnitude entry is positive."""
    flip = np.sign(Q[np.abs(Q).argmax(axis=0), np.arange(Q.shape[1])])
    flip[flip == 0.0] = 1.0
    return Q * flip


def submanifold_from_rank_r(M, points, base, r):
    """Geodesic submanifold spanned by the rank-r directions at the base.

    The tangent-space directions are pushed to phi-coordinates through the
    Jacobian and re-orthonormalized there.
    """
    base = as_point(base, M.dim, "base")
    U = iso_rank_r_approx(M, points, base, r)
    pushed = M.diffeo.jvp(np.broadcast_to(base, (r, M.dim)), U.T).T
    return GeodesicSubmanifold(M, base, _positive_peaks(np.linalg.qr(pushed)[0]))


def convexity_bounds_1d(S, grad_f, x, y, t_grid, hvp=None, gamma_h=1e-4):
    """Hessian and curvature terms of the projected gradient field on 1D S.

    Along the geodesic from x to y evaluates, at each grid time, the
    direction-normalized second derivative of f and the inner product of the
    normal gradient component with the curve acceleration (both divided by
    the squared speed).  Their sum over the grid brackets the monotonicity
    and Lipschitz constants of P grad f.  The acceleration is computed by
    central differences of the geodesic velocity with step gamma_h; the
    Hessian action falls back to central differences of grad_f when no
    Hessian-vector product is supplied.

    Returns an (len(t_grid), 3) array of rows (t, hess_term, curvature_term).
    """
    M = S.manifold
    if S.subspace_dim != 1:
        raise ValueError("convexity_bounds_1d requires a 1-dimensional submanifold")
    x = as_point(x, M.dim, "x")
    y = as_point(y, M.dim, "y")
    for name, p in (("x", x), ("y", y)):
        if not S.contains(p):
            raise DomainError(f"{name} is not on the submanifold")
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        p = lc_geodesic(M, x, y, t)
        vel = lc_geodesic_velocity(M, x, y, t).vec
        speed2 = float(np.dot(vel, vel))
        acc = (lc_geodesic_velocity(M, x, y, t + gamma_h).vec
               - lc_geodesic_velocity(M, x, y, t - gamma_h).vec) / (2.0 * gamma_h)
        if hvp is not None:
            hess_term = float(np.dot(hvp(p, vel), vel)) / speed2
        else:
            h = 1e-6 * (1.0 + np.linalg.norm(p))
            unit = vel / np.sqrt(speed2)
            dgrad = (np.asarray(grad_f(p + h * unit), dtype=float)
                     - np.asarray(grad_f(p - h * unit), dtype=float)) / (2.0 * h)
            hess_term = float(np.dot(dgrad, unit))
        grad = np.asarray(grad_f(p), dtype=float)
        normal = grad - tangent_projection(S, p, grad).vec
        rows.append((float(t), hess_term, float(np.dot(normal, acc)) / speed2))
    return np.asarray(rows)
