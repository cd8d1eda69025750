"""Iso-Riemannian descent: fixed-step scheme, barycentre solver, diagnostics.

The descent iteration moves against a vector field through the
iso-exponential, x+ = iso_exp_x(-r xi_x).  With line search on the field
norm this computes iso-barycentres (zeros of the averaged iso-logarithm
field); the ratio diagnostics bound the monotonicity and Lipschitz constants
that govern the admissible step-size window.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import StallError
from .isomaps import _iso_exp, _iso_log_vecs, _phi_log_vecs, iso_distance, iso_exp, iso_transport
from .pullback import TangentVector, _point_pair, as_point
from .quadrature import _count
from .serialize import _csv_text, _write_text


@dataclass(frozen=True)
class LineSearchConfig:
    """Backtracking line-search settings shared by the iterative solvers.

    ``tol`` is the stopping threshold on the monitored quantity: the field
    norm for barycentres, the projected-gradient norm relative to the initial
    objective for projected descent.
    """

    r0: float = 1.0
    c: float = 0.5
    max_backtracks: int = 50
    max_iters: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        for key in ("r0", "c", "tol"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.r0 <= 0:
            raise ValueError(f"r0 must be > 0, got {self.r0}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie in (0, 1), got {self.c}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        for key, low in (("max_backtracks", 1), ("max_iters", 0)):
            object.__setattr__(self, key, _count(key, getattr(self, key), low))


@dataclass
class ConvergenceTrace:
    """Per-iteration record emitted by every iterative solver.

    Entry i belongs to iterate i; step_sizes[0] is the configured initial
    step (no step produced the starting point).  Objectives are recorded only
    by solvers that evaluate an objective.
    """

    iterates: list = field(default_factory=list)
    field_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    objectives: list = None
    converged: bool = False
    stalled: bool = False

    def append(self, x, field_norm, step_size, objective=None):
        self.iterates.append(np.asarray(x, dtype=float).copy())
        self.field_norms.append(float(field_norm))
        self.step_sizes.append(float(step_size))
        if objective is not None:
            if self.objectives is None:
                self.objectives = []
            self.objectives.append(float(objective))

    def __len__(self):
        return len(self.iterates)

    def write_csv(self, path):
        """Columns: iter, field_norm, step_size, objective, x0..x{d-1}."""
        dim = len(self.iterates[0]) if self.iterates else 0
        header = ["iter", "field_norm", "step_size", "objective"]
        header += [f"x{i}" for i in range(dim)]
        fields = ["%.17g"] * len(header)
        columns = [np.arange(len(self)), self.field_norms, self.step_sizes]
        if self.objectives is None:
            fields[3] = ""          # no objective column: its cells stay empty
        else:
            columns.append(self.objectives)
        table = np.column_stack([*columns, np.reshape(self.iterates, (len(self), dim))])
        _write_text(path, _csv_text(header, table, fields))


def ird_step(M, x, v, r):
    """One iso-Riemannian descent step iso_exp_x(-r v)."""
    x = as_point(x, M.dim, "x")
    if not np.array_equal(v.base, x):
        raise ValueError("descent direction must be based at x")
    if r <= 0:
        raise ValueError(f"step size must be > 0, got {r}")
    return iso_exp(M, TangentVector(x, -r * v.vec))


def ird_descent(M, vector_field, x0, r, tol=1e-8, max_iters=500):
    """Fixed-step iso-Riemannian descent on a vector field (no line search).

    Iterates x+ = iso_exp_x(-r field(x)) until the field norm drops below
    tol or the iteration cap is hit.  Returns (point, trace).
    """
    x = as_point(x0, M.dim, "x0")
    max_iters = _count("max_iters", max_iters, 0)
    xi = vector_field(x)
    trace = ConvergenceTrace()
    trace.append(x, xi.norm, r)
    for _ in range(max_iters):
        if xi.norm < tol:
            trace.converged = True
            break
        x = ird_step(M, x, xi, r)
        xi = vector_field(x)
        trace.append(x, xi.norm, r)
    else:
        trace.converged = xi.norm < tol
    return x, trace


def _mean_vecs(logs):
    """-(1/N) times the sum of the N vectors of each ``(..., N, d)`` stack."""
    # The running sum from +0.0 of a loop over the points, in one call:
    # np.sum may add the terms pairwise, which rounds differently.
    zero = np.zeros(logs.shape[:-2] + (1, logs.shape[-1]))
    acc = np.cumsum(np.concatenate([zero, logs], axis=-2), axis=-2)[..., -1, :]
    return -acc / logs.shape[-2]


def _field_points(M, points):
    """The data points of a barycentre field as a validated ``(N, d)`` array."""
    if len(points) == 0:
        raise ValueError("a barycentre field requires a nonempty point list")
    return as_point(points, M.dim, "points", batch=True).reshape(-1, M.dim)


def _barycentre_field(M, x, a, b):
    """The barycentre field's vector at x and its norm.

    a is phi(x) and b the data's phi-images.  Raises ValueError where the
    field is not finite, as TangentVector would.
    """
    vec = _mean_vecs(_phi_log_vecs(M, a, b)[0])
    norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        raise ValueError(f"the barycentre field is not finite at {x}")
    return vec, norm


def iso_barycentre_field(M, x, points):
    """The descent field -(1/N) sum iso_log_x(x_i); zero at an iso-barycentre."""
    x = as_point(x, M.dim, "x")
    b = M.diffeo.forward(_field_points(M, points))
    return TangentVector(x, _barycentre_field(M, x, M.diffeo.forward(x), b)[0])


def _descend(M, x, start, score, settle, cfg, what, objective=False):
    """Backtracking descent x+ = iso_exp_x(-r vec), shared by the line-search solvers.

    A trial is accepted once its value strictly falls.  score(trial) is
    ``(value, kept)``, settle(trial, kept) the ``(a, vec, norm)`` of an accepted
    trial (phi-image, field, field norm), and start ``(value, (a, vec, norm))``
    at x.  what formats the value of a stall.  An objective value is traced,
    and a positive first one divides the norm in the stopping test.
    """
    value, (a, vec, norm) = start
    denom = value if objective and value > 0.0 else 1.0
    trace = ConvergenceTrace()
    trace.append(x, norm, cfg.r0, objective=value if objective else None)
    for _ in range(cfg.max_iters):
        if norm / denom < cfg.tol:
            trace.converged = True
            return x, trace
        r = cfg.r0
        for _ in range(cfg.max_backtracks):
            trial = _iso_exp(M, x, a, -r * vec)
            value_trial, kept = score(trial)
            if value_trial < value:
                break
            r *= cfg.c
        else:
            raise StallError(f"line search stalled at {what.format(value)}", x, trace)
        x, value = trial, value_trial
        a, vec, norm = settle(x, kept)
        trace.append(x, norm, r, objective=value if objective else None)
    trace.converged = norm / denom < cfg.tol
    return x, trace


def iso_barycentre(M, points, cfg=None, x0=None):
    """Iso-barycentre by iso-Riemannian descent with line search.

    Starts from the closed-form Riemannian barycentre (or x0 when given); a
    trial step is accepted only if it strictly decreases the field norm,
    otherwise the step is shrunk by cfg.c.  Raises StallError (carrying the
    best iterate and the trace) when no decrease is found within
    cfg.max_backtracks.  Raises ValueError if the field is not finite.

    The points are validated and mapped by phi once; the loop runs the steps
    of ``ird_step`` and ``iso_barycentre_field`` on float arrays, with one
    phi-image and one field per trial.
    """
    cfg = cfg or LineSearchConfig()
    b = M.diffeo.forward(_field_points(M, points))
    # closed_form_barycentre of the validated points, from their phi-images.
    x = M.diffeo.inverse(b.mean(axis=0)) if x0 is None else as_point(x0, M.dim, "x0")

    def score(x):
        a = M.diffeo.forward(x)
        vec, norm = _barycentre_field(M, x, a, b)
        return norm, (a, vec, norm)

    return _descend(M, x, score(x), score, lambda x, kept: kept, cfg, "field norm {:.3e}")


def _solve(solver, *args):
    """``(point, trace)`` of a line-search solver; the best iterate on a stall."""
    try:
        return solver(*args)
    except StallError as stall:
        return stall.best, stall.trace


def barycentre_ratio_field(M, x, points, use_iso_log=True):
    """Field whose ratios diagnose the barycentre problem at x.

    The default is the descent field -(1/N) sum iso_log_x(x_i), which is
    1-strongly iso-monotone and 1-iso-Lipschitz on 1D pullbacks; with
    use_iso_log=False the plain logarithm replaces the iso-logarithm.
    """
    if use_iso_log:
        return iso_barycentre_field(M, x, points)
    x = as_point(x, M.dim, "x")
    a = M.diffeo.forward(x)
    logs = M.diffeo.inv_jvp(a, M.diffeo.forward(_field_points(M, points)) - a)
    return TangentVector(x, _mean_vecs(logs))


def _ratio_denominator(dist):
    if dist == 0.0:
        raise ValueError("ratios are undefined at x = xbar")
    return float(dist)


def iso_monotonicity_ratio(M, x, xbar, field_at_x):
    """Normalized strong iso-monotonicity of a field vanishing at xbar.

    <field(x), iso-transport of iso_log_xbar(x)> / iso_distance(xbar, x)^2;
    lower bound witnesses for the monotonicity constant alpha.
    """
    xbar, x = _point_pair(M, xbar, x)
    log, dist = _iso_log_vecs(M, xbar, x)
    dist = _ratio_denominator(dist)
    moved = iso_transport(M, xbar, x, TangentVector(xbar, log))
    return float(np.dot(field_at_x.vec, moved.vec)) / dist ** 2


def iso_lipschitz_ratio(M, x, xbar, field_at_x):
    """|field(x)| / iso_distance(xbar, x); witnesses the Lipschitz constant."""
    return field_at_x.norm / _ratio_denominator(iso_distance(M, xbar, x))


def restricted_isometry_check(M, A, pairs):
    """Two-sided restricted-isometry witnesses of A over sampled pairs.

    For each pair, the ratio |A iso_log_x(y)|^2 / iso_distance(x, y)^2 is
    computed; returns (min - 1, max - 1).  Coincident pairs are skipped,
    with one warning that counts them.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != M.dim:
        raise ValueError(f"A must have {M.dim} columns, got shape {A.shape}")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no non-degenerate pairs to check")
    x = as_point([p for p, _ in pairs], M.dim, "x", batch=True)
    y = as_point([q for _, q in pairs], M.dim, "y", batch=True)
    logs, dists = _iso_log_vecs(M, x, y)
    moving = dists != 0.0
    if not moving.all():
        warnings.warn(f"isometry check: {np.count_nonzero(~moving)} coincident pair(s) skipped")
    if not moving.any():
        raise ValueError("no non-degenerate pairs to check")
    images = logs[moving] @ A.T
    ratios = np.vecdot(images, images) / dists[moving] ** 2
    return float(ratios.min()) - 1.0, float(ratios.max()) - 1.0
