"""Comparison estimators: Maximin and Meta-LM*.

Each baseline produces a p-vector for a target group from the same raw
ingredients the completion pipeline uses (single-task OLS on the target
group's own samples is ``regression.ols_fit``):

* ``maximin`` aggregates the per-group estimates into the convex
  combination whose pooled-design prediction risk is smallest in the
  worst case, following the convex-hull characterization: minimize
  w' G w over the probability simplex, with G_{gh} = b_g' S b_h for the
  pooled second-moment matrix S (``pooled_gram``, of rows or of
  sufficient statistics). The small simplex QP is solved exactly by a
  primal active-set method (Nocedal & Wright, Numerical Optimization,
  ch. 16), which stops when the KKT certificate holds.
* ``meta_lm_star`` learns the shared coefficient subspace (mode-0 basis
  of the bias-corrected Gram, ``spectral.mode_spectrum``) from the source
  groups, then regresses the target response on the target design
  projected into that subspace (``projected_fits``). The basis uses no
  target data, so ``projected_fits`` fits many targets on one basis in
  one OLS run; the harness passes it the completion fit's mode-0 basis,
  which is the same matrix.
"""

import numpy as np

from .errors import ConvergenceError, DimensionError, NonFiniteError
from .regression import (GroupedDataset, GroupEstimates, _fail,
                         _row_statistics, _samples, ols_fits)
from .spectral import mode_spectrum

__all__ = ["pooled_gram", "maximin", "projected_fits", "meta_lm_star"]

MAXIMIN_TOL = 1e-10
MAXIMIN_MAX_ITER = 1_000


def pooled_gram(ds):
    """Sample-size weighted average of the per-group design Grams, S.

    Equals X'X / N for the row-stacked design over every group. ``ds`` is
    a GroupedDataset, whose rows give their X'X blocks through
    ``regression._row_statistics``, or a GroupedStatistics, whose X'X
    blocks and n are summed with no pass over rows; either way in sorted
    group order, so the statistics of a dataset's rows give its S bit
    for bit.
    """
    if not ds.groups:
        raise DimensionError("empty dataset")
    groups = [ds.groups[g] for g in sorted(ds.groups)]
    if isinstance(ds, GroupedDataset):
        groups = _row_statistics(groups, [None] * len(groups))
    total = np.zeros((ds.p, ds.p))
    n_total = 0
    for xtx, _, _, n in groups:
        total += xtx
        n_total += n
    return total / n_total


def _coef_matrix(estimates):
    """Stack per-group coefficient vectors as columns, sorted by group."""
    if isinstance(estimates, GroupEstimates):   # rows are in group order
        return np.ascontiguousarray(estimates.coef.T), estimates.groups
    coefs = {tuple(g): np.asarray(b, dtype=float)
             for g, b in dict(estimates).items()}
    if not coefs:
        raise DimensionError("no source estimates to aggregate")
    order = sorted(coefs)
    return np.column_stack([coefs[g] for g in order]), order


def _advance(w, idx, step):
    """Weights moved by ``step`` on the working set ``idx``, stopping at
    the first weight that would go negative. Returns (weights, the index
    that left the working set or None)."""
    # a near-singular bordered system meets its constraint row only to
    # the solve's cutoff; keep the weights on the simplex exactly
    step = step - step.mean()
    current = w[idx]
    target = current + step
    w = w.copy()
    blocking = np.flatnonzero(target <= 0.0)
    if not blocking.size:
        w[idx] = target
        return w, None
    at = current[blocking]
    ratios = np.divide(at, at - target[blocking],
                       out=np.zeros_like(at), where=at > 0.0)
    first = int(np.argmin(ratios))
    w[idx] = np.maximum(current + ratios[first] * step, 0.0)
    drop = idx[blocking[first]]
    w[drop] = 0.0
    return w, drop


def _working_set_step(gram, w, idx, grad, value):
    """The step to the best point of the affine hull of ``idx``, through
    ``_advance``. The bordered system is solved by LU and redone by
    minimum-norm least squares where LU raises, returns non-finite
    values or would raise w' G w above ``value``."""
    k = idx.size
    bordered = np.ones((k + 1, k + 1))
    bordered[:k, :k] = gram[np.ix_(idx, idx)]
    bordered[k, k] = 0.0
    rhs = np.append(-grad[idx], 0.0)
    try:
        step = np.linalg.solve(bordered, rhs)[:k]
    except np.linalg.LinAlgError:
        step = None
    if step is not None and np.isfinite(step).all():
        new, drop = _advance(w, idx, step)
        if float(new @ gram @ new) <= value:
            return new, drop
    return _advance(w, idx, np.linalg.lstsq(bordered, rhs, rcond=None)[0][:k])


def maximin(estimates, pooled, tol=MAXIMIN_TOL, max_iter=MAXIMIN_MAX_ITER,
            history=None):
    """Worst-case-optimal convex combination of per-group estimates.

    Solves min over the probability simplex of w' G w with
    G_{gh} = b_g' S b_h exactly, by a primal active-set method. It starts
    at the vertex of the best single estimate. Each step solves the
    bordered system [G_PP 1; 1' 0] on the working set P for the step to
    the best point of its affine hull. A weight that would go negative
    stops the step at that bound and leaves P. At the best point of the
    hull the index with the most negative gradient relative to the
    multiplier joins P. The bordered system is solved by LU. Where LU
    raises, returns non-finite values, or gives a step that would raise
    w' G w, the step is redone with the minimum-norm least squares
    solve, so a singular G_PP (duplicate or antipodal estimates, more
    groups than features) needs no ridge. In exact arithmetic the
    joining index always gets a positive step; where rounding in a
    singular solve gives it none, it moves toward its own vertex by an
    exact line search instead, which lowers w' G w where repeating the
    step would cycle.

    The solver stops when the KKT certificate holds: the gradient G w is
    equal on the support and no smaller off it, both to ``tol`` times
    the largest diagonal entry of G. ``pooled`` is S, ``pooled_gram`` of
    the data the estimates were fitted on. Returns (coefficient
    vector, weights). ``max_iter`` caps the active-set steps; running
    out raises ConvergenceError carrying the final KKT residual. NaN or
    infinite values raise NonFiniteError naming the estimate's group, or
    "pooled", before the solve.
    ``history``, when a list, collects the objective value of every
    iterate; the values do not increase beyond the rounding of w' G w.
    """
    basis, order = _coef_matrix(estimates)
    pooled = np.asarray(pooled, dtype=float)
    p, m = basis.shape
    if pooled.shape != (p, p):
        raise DimensionError(
            f"pooled Gram shape {pooled.shape} does not match p={p}")
    finite = [*np.isfinite(basis).all(axis=0), np.isfinite(pooled).all()]
    if not all(finite):
        where = [*order, "pooled"][finite.index(False)]
        raise NonFiniteError(f"{where} holds non-finite values", where=where)
    gram = basis.T @ pooled @ basis
    gram = (gram + gram.T) / 2.0
    diag = np.diag(gram)
    slack = tol * max(float(diag.max()), 0.0)
    free = np.zeros(m, dtype=bool)
    free[np.argmin(diag)] = True
    w = free.astype(float)
    value = float(w @ gram @ w)
    if history is not None:
        history.append(value)
    steps = 0
    while True:
        grad = gram @ w
        level = float(w @ grad)
        spread = float(np.max(np.abs(grad[free] - level)))
        outside = np.flatnonzero(~free)
        gap = level - float(grad[outside].min(initial=np.inf))
        if spread <= slack and gap <= slack:
            return basis @ w, w
        if steps == max_iter:
            raise ConvergenceError(
                f"maximin KKT certificate not reached in {max_iter} "
                f"active-set steps", residual=max(spread, gap))
        steps += 1
        joined = None
        if spread <= slack:
            joined = outside[np.argmin(grad[outside])]
            free[joined] = True
        new, drop = _working_set_step(gram, w, np.flatnonzero(free), grad,
                                      value)
        if joined is not None and drop == joined:
            # the joining index would leave again at once; its gradient is
            # below the level, so the segment to its vertex descends
            slope = grad[joined] - level
            curv = gram[joined, joined] - 2.0 * grad[joined] + level
            t = 1.0 if curv <= -slope else -slope / curv
            new = (1.0 - t) * w
            new[joined] += t
            drop = None
            if t == 1.0:
                free[:] = False
                free[joined] = True
        w, value = new, float(new @ gram @ new)
        if drop is not None:
            free[drop] = False
        if history is not None:
            history.append(value)


def projected_fits(basis, targets):
    """basis times the OLS fit of y on X basis, in the span of basis, for
    every target of ``targets``, {name: (X, y)}, with the OLS fits in one
    ``regression.ols_fits`` run, each bitwise its own. A target whose
    design does not match its responses or the basis, or that has no
    more samples than the basis has columns, raises DimensionError, and
    one that holds NaN or infinite values NonFiniteError, naming it
    (``where``); of several, the first."""
    pairs = []
    for name, (X, y) in targets.items():
        X, y = _samples(X, y, basis.shape[0], name)
        if y.size <= basis.shape[1]:
            _fail(DimensionError, f"need more target samples than the "
                  f"subspace dim {basis.shape[1]}", name)
        pairs.append((X @ basis, y))
    scores = ols_fits(pairs, list(targets))[0]
    return {name: basis @ score for name, score in zip(targets, scores)}


def meta_lm_star(est, pattern, X, y):
    """Shared-subspace regression for a target group.

    Learns the mode-0 basis V0 from the source groups
    (``spectral.mode_spectrum``, noise-floor rank rule), then returns V0
    times the OLS fit of y on X V0 (``projected_fits``). The output
    therefore lies in the span of V0.
    """
    return projected_fits(mode_spectrum(est, pattern, 0).basis,
                          {None: (X, y)})[None]
