"""Transfer learning onto a data-poor target group.

The target group's coefficient vector is modeled as the completed
tensor's prediction plus a sparse offset: gamma = beta(g*) + delta. The
offset is estimated by an l1-penalized regression of the target
residuals on the target design:

    delta_hat = argmin (1/n) ||y - X beta_hat - X delta||^2 + lam ||delta||_1

solved by cyclic coordinate descent. The returned coefficient is
gamma_hat = beta_hat + delta_hat, which degrades gracefully: with no
usable target signal the lasso shrinks delta to zero and the answer
falls back to the completed tensor's coefficient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NonFiniteError

__all__ = ["TransferResult", "lasso_offset", "lasso_kkt", "default_lambda",
           "cross_validate_lambda", "tensortl"]

LASSO_TOL = 1e-8
LASSO_MAX_ITER = 100_000
DEFAULT_C0 = 2.0


@dataclass(frozen=True)
class TransferResult:
    """Transfer fit for one target group.

    gamma_hat = beta_hat + delta_hat holds exactly by construction;
    support lists the 0-based coordinates where delta_hat is nonzero.
    """

    gamma_hat: np.ndarray
    delta_hat: np.ndarray
    lambda_used: float
    support: tuple


def _soft(z, threshold):
    if z > threshold:
        return z - threshold
    if z < -threshold:
        return z + threshold
    return 0.0


def lasso_offset(X, y, offset, lam, tol=LASSO_TOL, max_iter=LASSO_MAX_ITER,
                 history=None):
    """l1-penalized offset regression by cyclic coordinate descent.

    Minimizes (1/n)||y - X offset - X delta||^2 + lam ||delta||_1 over
    delta, sweeping coordinates in fixed order 1..p and soft-thresholding
    each. Stops when no coordinate moved more than ``tol`` in a sweep.
    Columns that are identically zero keep delta_j = 0. ``history``,
    when a list, collects the objective after every sweep.

    Raises ConvergenceError (carrying the final KKT residual) if the
    sweep limit is reached first.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    offset = np.asarray(offset, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise DimensionError(
            f"design {X.shape} does not match {y.size} responses")
    n, p = X.shape
    if offset.size != p:
        raise DimensionError(f"offset has {offset.size} entries, expected {p}")
    if not lam > 0:
        raise ValueError(f"penalty must be positive, got {lam}")

    col_ms = np.einsum("ij,ij->j", X, X) / n  # ||X_j||^2 / n
    delta = np.zeros(p)
    resid = y - X @ offset
    if history is not None:
        history.append(float(resid @ resid) / n)
    for _ in range(max_iter):
        max_move = 0.0
        for j in range(p):
            if col_ms[j] <= 0.0:
                continue
            old = delta[j]
            rho = (X[:, j] @ resid) / n + col_ms[j] * old
            new = _soft(rho, lam / 2.0) / col_ms[j]
            if new != old:
                resid -= X[:, j] * (new - old)
                delta[j] = new
                max_move = max(max_move, abs(new - old))
        if history is not None:
            history.append(float(resid @ resid) / n
                           + lam * float(np.abs(delta).sum()))
        if max_move < tol:
            return delta
    grad = 2.0 * (X.T @ resid) / n
    kkt = float(np.max(np.maximum(np.abs(grad) - lam, 0.0)))
    raise ConvergenceError(
        f"coordinate descent did not converge in {max_iter} sweeps",
        residual=kkt)


def lasso_kkt(X, y, offset, delta, lam):
    """Stationarity residual of a candidate offset solution.

    Zero for an exact minimizer: active coordinates must satisfy
    (2/n) X_j' r = lam * sign(delta_j) and inactive ones
    |(2/n) X_j' r| <= lam, with r the full residual.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    delta = np.asarray(delta, dtype=float).ravel()
    resid = y - X @ (np.asarray(offset, dtype=float).ravel() + delta)
    grad = 2.0 * (X.T @ resid) / y.size
    active = delta != 0.0
    res = np.maximum(np.abs(grad) - lam, 0.0)
    res[active] = np.abs(grad[active] - lam * np.sign(delta[active]))
    return float(res.max(initial=0.0))


def default_lambda(p, n, c0=DEFAULT_C0):
    """Theoretical penalty scale c0 * sqrt(log p / n)."""
    if p < 2 or n < 1:
        raise DimensionError(f"need p >= 2 and n >= 1, got p={p}, n={n}")
    return c0 * math.sqrt(math.log(p) / n)


def cross_validate_lambda(X, y, offset, lambdas=None, folds=5, seed=0,
                          tol=LASSO_TOL, max_iter=LASSO_MAX_ITER):
    """Pick the penalty with the best k-fold held-out prediction error.

    The default grid is 20 geometric steps from the smallest
    all-shrinking penalty lam_max down to lam_max / 100. Fold membership
    comes from a seeded permutation, so the choice is deterministic.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    offset = np.asarray(offset, dtype=float).ravel()
    n = y.size
    if n < folds:
        raise DimensionError(f"need at least {folds} samples, got {n}")
    if lambdas is None:
        resid0 = y - X @ offset
        lam_max = 2.0 * float(np.max(np.abs(X.T @ resid0))) / n
        if lam_max <= 0.0:
            return default_lambda(max(X.shape[1], 2), n)
        lambdas = np.geomspace(lam_max, lam_max / 100.0, 20)
    perm = np.random.default_rng(int(seed)).permutation(n)
    splits = np.array_split(perm, folds)
    best_lam, best_err = None, np.inf
    for lam in lambdas:
        err = 0.0
        for hold in splits:
            train = np.setdiff1d(perm, hold, assume_unique=True)
            delta = lasso_offset(X[train], y[train], offset, float(lam),
                                 tol=tol, max_iter=max_iter)
            pred = X[hold] @ (offset + delta)
            err += float(np.sum((y[hold] - pred) ** 2))
        if err < best_err - 1e-15:
            best_err, best_lam = err, float(lam)
    return best_lam


def tensortl(model, g_star, X, y, lam=None, cv=False, c0=DEFAULT_C0,
             tol=LASSO_TOL, max_iter=LASSO_MAX_ITER, seed=0):
    """Transfer the completed tensor's coefficient onto a target group.

    Takes beta_hat for ``g_star`` from the completion model, estimates
    the sparse offset on the target sample, and returns
    TransferResult(gamma_hat = beta_hat + delta_hat, ...). When ``lam``
    is omitted the penalty defaults to c0 * sqrt(log p / n), or to the
    cross-validated choice when ``cv`` is set. Raises NonFiniteError
    naming ``g_star`` when the target data hold NaN or infinite values.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteError(
            f"target group {g_star}: data hold non-finite values",
            where=g_star)
    beta_hat = model.coefficient(g_star)
    if X.ndim != 2 or X.shape[1] != beta_hat.size:
        raise DimensionError(
            f"target design {X.shape} does not match p={beta_hat.size}")
    if lam is None:
        if cv:
            lam = cross_validate_lambda(X, y, beta_hat, seed=seed,
                                        tol=tol, max_iter=max_iter)
        else:
            lam = default_lambda(beta_hat.size, y.size, c0)
    delta = lasso_offset(X, y, beta_hat, float(lam), tol=tol,
                         max_iter=max_iter)
    support = tuple(int(j) for j in np.flatnonzero(delta))
    return TransferResult(beta_hat + delta, delta, float(lam), support)
