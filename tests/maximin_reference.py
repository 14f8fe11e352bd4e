"""The lstsq active-set maximin, kept as an independent reference.

The package solves each working-set step by LU and falls back to the
minimum-norm least squares solve only where LU fails; tests compare it
against this solver, which takes the least squares solve on every step.
"""

import numpy as np

from tensordg.baselines import MAXIMIN_MAX_ITER, MAXIMIN_TOL, _coef_matrix
from tensordg.errors import ConvergenceError, DimensionError


def lstsq_maximin(estimates, pooled, tol=MAXIMIN_TOL,
                  max_iter=MAXIMIN_MAX_ITER, history=None):
    """Active-set maximin with a least squares solve on every step.

    Solves min over the probability simplex of w' G w with
    G_{gh} = b_g' S b_h exactly, by a primal active-set method. It starts
    at the vertex of the best single estimate. Each step solves the
    bordered system [G_PP 1; 1' 0] on the working set P for the step to
    the best point of its affine hull. A weight that would go negative
    stops the step at that bound and leaves P. At the best point of the
    hull the index with the most negative gradient relative to the
    multiplier joins P. The bordered solve is a minimum-norm least
    squares solve, so a singular G_PP (duplicate or antipodal estimates,
    more groups than features) needs no ridge.

    The solver stops when the KKT certificate holds: the gradient G w is
    equal on the support and no smaller off it, both to ``tol`` times
    the largest diagonal entry of G. Returns (coefficient vector,
    weights). ``max_iter`` caps the active-set steps; running out raises
    ConvergenceError carrying the final KKT residual. ``history``, when
    a list, collects the objective value of every iterate; the values do
    not increase.
    """
    basis, _ = _coef_matrix(estimates)
    pooled = np.asarray(pooled, dtype=float)
    p, m = basis.shape
    if pooled.shape != (p, p):
        raise DimensionError(
            f"pooled Gram shape {pooled.shape} does not match p={p}")
    gram = basis.T @ pooled @ basis
    gram = (gram + gram.T) / 2.0
    diag = np.diag(gram)
    slack = tol * max(float(diag.max()), 0.0)
    free = np.zeros(m, dtype=bool)
    free[np.argmin(diag)] = True
    w = free.astype(float)
    if history is not None:
        history.append(float(w @ gram @ w))
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
        if spread <= slack:
            free[outside[np.argmin(grad[outside])]] = True
        idx = np.flatnonzero(free)
        k = idx.size
        bordered = np.ones((k + 1, k + 1))
        bordered[:k, :k] = gram[np.ix_(idx, idx)]
        bordered[k, k] = 0.0
        rhs = np.append(-grad[idx], 0.0)
        step = np.linalg.lstsq(bordered, rhs, rcond=None)[0][:k]
        # a near-singular bordered system meets its constraint row only to
        # the solve's cutoff; keep the weights on the simplex exactly
        step -= step.mean()
        current = w[idx]
        target = current + step
        blocking = np.flatnonzero(target <= 0.0)
        if blocking.size:
            at = current[blocking]
            ratios = np.divide(at, at - target[blocking],
                               out=np.zeros_like(at), where=at > 0.0)
            first = int(np.argmin(ratios))
            w[idx] = np.maximum(current + ratios[first] * step, 0.0)
            drop = idx[blocking[first]]
            w[drop] = 0.0
            free[drop] = False
        else:
            w[idx] = target
        if history is not None:
            history.append(float(w @ gram @ w))
