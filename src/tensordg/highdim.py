"""High-dimensional extension: joint support selection, then completion.

When the feature dimension exceeds the per-group sample sizes, the
pipeline first estimates a common sparse support across the observed
groups with a group-Lasso penalty that couples each coordinate across
groups:

    minimize (1/N) sum_g ||y_g - X_g b_g||^2
             + lam * sum_j sqrt(sum_g b_{g,j}^2)

(N = total sample count). Coordinates whose cross-group row norm reaches
``lam`` form the support estimate; the completion pipeline then runs on
those columns alone, and the result is embedded back into the full
space with zero rows elsewhere. group_lasso steps by a certified bound
on the working-set Grams' largest eigenvalue, with no eigendecomposition.
The stopping settings (``tol``, an absolute KKT residual, ``max_iter``
and ``history``) belong to group_lasso. fit_highdim's full-data solve
keeps the default ``tol``. ``_select`` is the one penalty selector: it
walks a grid for choose_lambda and transfer.cross_validate_lambda alike,
and stops each path solve at a KKT residual of PATH_TOL * lam.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .completion import fit_tensordg
from .errors import ConvergenceError, DimensionError, NonFiniteError
from .patterns import _index
from .regression import GroupedDataset
from .tensor import DenseTensor

__all__ = ["group_lasso", "group_lasso_kkt", "select_support",
           "choose_lambda", "fit_highdim"]

GROUP_LASSO_TOL = 1e-8
PATH_TOL = 1e-4   # _select's path solves, lasso_offset's first stop:
                  # KKT residual / lam
GROUP_LASSO_MAX_ITER = 100_000
LAMBDA_GRID_SIZE = 20
LAMBDA_GRID_SPAN = 100.0
HOLDOUT = 0.2


@dataclass(frozen=True)
class _Stack:
    """Groups zero-padded to one (..., K, n_max, p) design and
    (..., K, n_max) response. Padded rows are zero, so they add nothing
    to the loss or its gradient.

    Optional leading axes batch independent problems that share the
    groups ``order`` and the penalty: the loss sums over the batch, and
    a row norm couples only the K groups of one problem. The iterate is
    (..., K, p), and a solution map holds (..., p) arrays per group.
    """

    order: tuple
    X: np.ndarray
    y: np.ndarray
    n_total: int


def _stack(ds):
    if isinstance(ds, _Stack):
        return ds
    p, order = ds.p, tuple(sorted(ds.groups))  # ds.p rejects an empty ds
    sizes = [ds.groups[g][1].size for g in order]
    X = np.zeros((len(order), max(sizes), p))
    y = np.zeros((len(order), max(sizes)))
    for k, (g, n) in enumerate(zip(order, sizes)):
        X[k, :n], y[k, :n] = ds.groups[g]
    return _Stack(order, X, y, sum(sizes))


def _loss_grad(stack, B):
    """(1/N) sum ||y_k - X_k b_k||^2 over all groups and problems, and
    its gradient, rows b_k of B."""
    resid = np.matmul(stack.X, B[..., None])[..., 0] - stack.y
    grad = np.matmul(resid[..., None, :], stack.X)[..., 0, :]
    return (float(np.vdot(resid, resid)) / stack.n_total,
            grad * (2.0 / stack.n_total))


def _norms(B):
    """Cross-group norm of every coordinate of every problem, (..., 1, p)."""
    return np.sqrt(np.add.reduce(B * B, axis=-2, keepdims=True))


def _rows(mask):
    """Coordinates flagged in any problem: the batch's union, (p,)."""
    return mask.reshape(-1, mask.shape[-1]).any(axis=0)


def _kkt(B, grad, lam):
    norms = _norms(B)
    on = norms > 0.0
    res = np.where(on, _norms(grad + lam * B / np.where(on, norms, 1.0)),
                   np.maximum(_norms(grad) - lam, 0.0))
    return float(res.max())


def _top_bound(gram):
    """Upper bound on the largest eigenvalue in a stack of m x m PSD
    matrices A, 0.0 when all are zero: with d the largest diagonal (and
    largest) entry, lam_max <= d ||(A/d)^8||_F^(1/8) <= m^(1/16) lam_max.
    The 8th power would save a squaring but cost 4% more iterations."""
    d = float(np.diagonal(gram, axis1=-2, axis2=-1).max())
    power = gram / (d or 1.0)    # eigenvalues at most m: none overflows
    for _ in range(3):
        power = power @ power
    return d * float(np.square(power).sum(axis=(-2, -1)).max()) ** 0.0625


def _start(stack, init):
    """The zero iterate with the warm start ``init`` written in. Raises
    DimensionError for a group that is not in the stack or whose start
    has the wrong shape, and NonFiniteError for one that holds NaN or
    infinite values, each naming the group."""
    x = np.zeros(stack.X.shape[:-2] + stack.X.shape[-1:])
    shape = x.shape[:-2] + x.shape[-1:]
    rows = {g: k for k, g in enumerate(stack.order)}
    for g, b in ({} if init is None else init).items():
        if g not in rows:
            raise DimensionError(f"warm start for group {g}, which has no "
                                 f"data", where=g)
        b = np.asarray(b, dtype=float)
        if b.shape != shape:
            raise DimensionError(f"warm start for group {g} has shape "
                                 f"{b.shape}, expected {shape}", where=g)
        x[..., rows[g], :] = b
    if not np.isfinite(x).all():
        g = next(g for g in init
                 if not np.isfinite(x[..., rows[g], :]).all())
        raise NonFiniteError(f"warm start for group {g} holds non-finite "
                             f"values", where=g)
    return x


def _fista(sub, x0, g0, fx, lam, step, tol, max_iter, history):
    """Monotone FISTA with restart on the working-set stack ``sub`` from
    the gathered iterate x0 with gradient g0 and objective fx, until the
    prox point's KKT bound is at most ``tol`` or ``max_iter`` iterations
    are done. Returns (iterate, objective, solved, iterations).

    Every step writes into buffers allocated here, once, in C order. A
    point and its gradient times ``step`` share one (2, ...) array, so
    one operation extrapolates or differences both, or gives the prox
    input y - step grad f(y): the accepted point x, the one before it
    and the prox point z rotate through three such arrays, and the
    momentum point y, the difference z - y, the residual, the row norms
    and three scratch arrays have their own.
    """
    X, resp, n_total = sub.X, sub.y, sub.n_total
    cur, old, new, mom, diff = (np.empty((2,) + x0.shape) for _ in range(5))
    v, sq = np.empty(x0.shape), np.empty(x0.shape)
    resid = np.empty(X.shape[:-1])
    norms, total = np.empty((2,) + x0.shape[:-2] + (1, x0.shape[-1]))
    cur[0], cur[1] = x0, step * g0

    def row_norms(B):
        np.multiply(B, B, out=sq)
        return np.add.reduce(sq, axis=-2, keepdims=True, out=norms)

    sl = step * lam
    y, t, restarted, solved, iters = cur, 1.0, True, False, 0
    while not solved and iters < max_iter:
        iters += 1
        z, gz = new[0], new[1]
        np.subtract(y[0], y[1], out=v)
        # z_j = v_j s_j / (s_j + sl), ||z_j|| = s_j = max(||v_j|| - sl, 0)
        shrink = np.sqrt(row_norms(v), out=norms)
        np.maximum(np.subtract(shrink, sl, out=shrink), 0.0, out=shrink)
        pen = float(np.add.reduce(shrink, None))
        np.divide(shrink, np.add(shrink, sl, out=total), out=shrink)
        np.multiply(v, shrink, out=z)
        np.matmul(X, z[..., None], out=resid[..., None])
        np.subtract(resid, resp, out=resid)
        np.matmul(resid[..., None, :], X, out=gz[..., None, :])
        np.multiply(gz, 2.0 * step / n_total, out=gz)
        fz = float(np.vdot(resid, resid)) / n_total + lam * pen
        # after a restart z is a proximal-gradient step from x, which
        # lowers the objective up to rounding
        if fz <= fx or restarted:
            np.subtract(new, y, out=diff)
            np.subtract(diff[1], diff[0], out=v)
            # sqrt is monotone: the largest norm is the root of the
            # largest squared norm
            worst = float(np.maximum.reduce(row_norms(v), None))
            solved = math.sqrt(worst) / step <= tol
            # (z - y)'(z - x) < 0 is the test (y - z)'(z - x) > 0 with
            # every product negated, which IEEE arithmetic does exactly
            restarted = float(np.vdot(diff[0],
                                      np.subtract(z, cur[0], out=v))) < 0.0
            old, cur, new = cur, new, old
            fx = fz
        else:
            restarted = True
        history.append(fx)
        if restarted:
            y, t = cur, 1.0
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            # the gradient is affine, so it extrapolates with the iterate
            np.subtract(cur, old, out=mom)
            np.add(cur, np.multiply(mom, (t - 1.0) / t_next, out=mom),
                   out=mom)
            y, t = mom, t_next
    return cur[0], fx, solved, iters


def group_lasso(ds, lam, tol=GROUP_LASSO_TOL, max_iter=GROUP_LASSO_MAX_ITER,
                init=None, history=None):
    """Row-sparse multi-group regression by monotone FISTA on working sets.

    Monotone FISTA (Beck & Teboulle 2009) with adaptive restart
    (O'Donoghue & Candes 2015) takes fixed steps 1/L on the columns of a
    working set, the nonzero rows and the zero rows whose gradient norm
    exceeds ``lam + tol``, with L >= 2 max_k ||X_k||_2^2 / N over them
    from a certified bound on the working-set Grams (``_top_bound``).
    Rows whose columns are zero in every group are set to zero without
    a FISTA run.
    One batched product pair on the zero-padded stack of all groups
    gives every residual and gradient. From the extrapolated point y,
    the row norms of grad f(z) - grad f(y) - L (z - y) bound the KKT
    residual of the prox point z; once they are at most ``tol``, zero
    rows outside the set that violate theirs by more than ``tol`` join
    it. So ``tol`` bounds group_lasso_kkt (absolute) at the returned
    {group: p-vector}. ``ds`` is a GroupedDataset or the stack that
    a selector builds once per path; ``init`` warm-starts from a
    solution map, and a group it names must be in ``ds`` with a finite
    start of the solution's shape (else DimensionError or
    NonFiniteError naming the group); ``history`` collects the
    objective after every iteration (non-increasing); ``max_iter``
    counts all iterations.

    A stack with leading batch axes is solved as one problem whose
    objective is the sum of the independent ones: the batch shares one
    working set (the union of the columns any problem needs), one step
    1/L (L from one bound over every problem and group), one
    monotone test and one momentum, and ``tol`` bounds every problem's
    own KKT residual. The map then holds (..., p) arrays.
    """
    if not lam > 0:
        raise ValueError(f"penalty must be positive, got {lam}")
    stack = _stack(ds)
    x = _start(stack, init)
    history = [] if history is None else history
    loss, grad = _loss_grad(stack, x)
    fx = loss + lam * float(_norms(x).sum())
    history.append(fx)
    work = _rows(_norms(x) > 0.0)
    solved, iters = not work.any(), 0
    while True:
        new = ~work & _rows(_norms(grad) > lam + tol)
        if solved and not new.any():
            return {g: x[..., k, :].copy() for k, g in enumerate(stack.order)}
        work |= new
        cols = np.flatnonzero(work)
        sub = replace(stack, X=stack.X[..., cols])
        Xt = sub.X.swapaxes(-1, -2)
        gram = Xt @ sub.X if cols.size <= sub.X.shape[-2] else sub.X @ Xt
        top = _top_bound(gram)
        if top == 0.0:
            # columns zero in every group: their rows, which hold every
            # nonzero row, add nothing to the loss and are zero at the min
            x[..., cols], solved = 0.0, True
            fx = float(np.vdot(stack.y, stack.y)) / stack.n_total
            history.append(fx)
        else:
            xs, fx, solved, done = _fista(sub, x[..., cols], grad[..., cols],
                                          fx, lam, stack.n_total / (2 * top),
                                          tol, max_iter - iters, history)
            iters += done
            x[..., cols] = xs
        grad = _loss_grad(stack, x)[1]
        if not solved:
            raise ConvergenceError(
                f"group lasso did not converge in {max_iter} iterations",
                residual=_kkt(x, grad, lam))


def group_lasso_kkt(ds, beta, lam):
    """Stationarity residual of a candidate group-lasso solution.

    Zero rows must have smooth-gradient row norm at most ``lam``; active
    rows must satisfy grad_row + lam * row / ||row|| = 0. Returns the
    worst row's residual, over every problem of a batched stack.
    """
    stack = _stack(ds)
    B = np.stack([np.asarray(beta[g], dtype=float) for g in stack.order],
                 axis=-2)
    return _kkt(B, _loss_grad(stack, B)[1], lam)


def select_support(beta, lam):
    """Coordinates whose cross-group row norm reaches the penalty level.

    Returns the sorted tuple of 0-based indices j with
    sqrt(sum_g beta_{g,j}^2) >= lam.
    """
    mat = np.column_stack([np.asarray(b, dtype=float)
                           for _, b in sorted(dict(beta).items())])
    if not np.all(np.isfinite(mat)):
        raise ValueError("coefficients must be finite")
    norms = np.linalg.norm(mat, axis=1)
    return tuple(int(j) for j in np.flatnonzero(norms >= lam))


def lambda_grid(ds):
    """Geometric penalty grid from the all-zero point down two decades.

    The top value is the smallest penalty at which the zero solution is
    stationary: the largest row norm of the smooth gradient at zero.
    ``ds`` is a GroupedDataset or its stack, as in group_lasso.
    """
    stack = _stack(ds)
    zero = np.zeros(stack.X.shape[:-2] + stack.X.shape[-1:])
    lam_max = float(_norms(_loss_grad(stack, zero)[1]).max())
    if lam_max <= 0.0:
        raise DimensionError("all responses are zero; nothing to select")
    return np.geomspace(lam_max, lam_max / LAMBDA_GRID_SPAN, LAMBDA_GRID_SIZE)


def _select(stack, grid, held_out, rule):
    """The penalty of ``grid`` that held-out loss picks along a
    warm-started path, and the path's solution at it.

    Walks ``grid`` from its first, largest, penalty down. Each
    group_lasso solve on ``stack`` starts from the one before and stops
    at a KKT residual of PATH_TOL * lam, not at the absolute tolerance
    of a final fit: a path solution only scores its penalty and
    warm-starts the next, so it needs less accuracy (Friedman, Hastie &
    Tibshirani 2010), and relative to the penalty the stop does not
    depend on the scale of the data. A solution's score is the mean of
    ``held_out(solution)``, the held-out rows' squared errors. Rule
    "min" picks the largest penalty that no smaller one undercuts by
    more than 1e-15 of its score, as a smaller gain is rounding; the
    margin is relative, so it means the same at any scale. Rule "1se"
    picks the largest penalty whose score is within one standard error
    of that pick's, which favors sparser solutions on flat loss curves.
    """
    path, errors, means, best = [], [], [], 0
    for lam in map(float, grid):
        path.append(group_lasso(stack, lam, init=path[-1] if path else None,
                                tol=PATH_TOL * lam))
        errors.append(held_out(path[-1]))
        means.append(float(errors[-1].mean()))
        if means[-1] < means[best] * (1.0 - 1e-15):
            best = len(means) - 1
    pick = best
    if rule == "1se":
        sq = errors[best]
        se = float(sq.std(ddof=1) / math.sqrt(sq.size)) if sq.size > 1 \
            else 0.0
        pick = next(k for k, mean in enumerate(means)
                    if mean <= means[best] + se)
    return float(grid[pick]), path[pick]


def choose_lambda(ds, seed=0, rule="1se"):
    """Penalty chosen by pooled holdout loss along a warm-started path.

    Splits every group with a seeded permutation (a HOLDOUT share of the
    rows, at least one, held out per group), stacks the training rows
    once, and walks lambda_grid of them with ``_select`` by the pooled
    squared prediction error on the held-out rows. ``rule`` is "min" or
    "1se" (default), as in ``_select``. Returns the penalty and the
    path's training-row solution at it, a warm start for a full-data
    solve, which certifies its own tolerance. A ``seed`` that is not a
    non-negative integer (1.7, True, -1) is an error naming it.
    """
    if rule not in ("min", "1se"):
        raise ValueError(f"unknown selection rule {rule!r}")
    rng = np.random.default_rng(_index(seed, "seed", "seeds"))
    train, valid = {}, []
    for g in sorted(ds.groups):
        X, y = ds.groups[g]
        n_hold = max(int(round(HOLDOUT * y.size)), 1)
        if n_hold >= y.size:
            raise DimensionError(f"group {g} too small to hold out from")
        perm = rng.permutation(y.size)
        hold, keep = perm[:n_hold], perm[n_hold:]
        train[g] = (X[keep], y[keep])
        valid.append((g, X[hold], y[hold]))
    stack = _stack(GroupedDataset(train))
    return _select(stack, lambda_grid(stack), lambda beta: np.concatenate(
        [(yv - Xv @ beta[g]) ** 2 for g, Xv, yv in valid]), rule)


def fit_highdim(ds, pattern, lam=None, seed=0):
    """Support selection followed by completion on the selected columns.

    Runs the group lasso at ``lam`` (chosen by choose_lambda on a
    holdout split seeded by ``seed`` when omitted; the full-data solve
    then starts from the path's solution at it), keeps the rows whose
    norm is at least that same ``lam``, fits the completion pipeline
    with noise-floor ranks on the selected columns, and embeds the
    result into the full feature space with zero rows off the support.
    The selection is recorded in model.diagnostics.
    """
    warm = None
    if lam is None:
        lam, warm = choose_lambda(ds, seed=seed)
    beta = group_lasso(ds, lam, init=warm)
    support = select_support(beta, lam)
    if not support:
        raise DimensionError(f"no coordinate survived the penalty {lam}")
    min_n = min(y.size for _, y in ds.groups.values())
    if len(support) >= min_n:
        raise DimensionError(
            f"support size {len(support)} is not below the smallest group "
            f"sample count {min_n}")
    sub = fit_tensordg(ds.restrict_columns(list(support)), pattern)
    rows = np.asarray(support, dtype=int)

    def embed(a, axis=0):
        """a in the full feature space along ``axis``, zero off the support."""
        full = np.zeros(a.shape[:axis] + (ds.p,) + a.shape[axis + 1:])
        np.moveaxis(full, axis, 0)[rows] = np.moveaxis(a, axis, 0)
        return full

    # loadings map core rows to output coordinates: shape (rank, dim)
    return replace(
        sub, bases=[embed(sub.bases[0])] + sub.bases[1:],
        loadings=[embed(sub.loadings[0], axis=1)] + sub.loadings[1:],
        tensor=DenseTensor(embed(sub.tensor.array)),
        diagnostics={**sub.diagnostics, "support": support,
                     "lambda": float(lam)})
