"""Reference per-group OLS: one LU solve per group.

``lu_fit`` and ``fit_all`` are the package's fits as they were before
the groups were solved in blocks: one ``np.linalg.solve`` per group, the
groups fitted one at a time in a serial loop. The tests require the
package's block fits on threads to equal these bit for bit.
"""

import numpy as np

from tensordg.errors import ConditioningError, DimensionError
from tensordg.regression import (GRAM_EIGENVALUE_FLOOR, GroupEstimates,
                                 GroupFit)


def lu_fit(X, y, xtx=None, noise_cov=None):
    """Least squares by one LU solve of G = X'X/n against [X'y/n | I].

    Returns (GroupFit, X'X); X'X and the noise covariance are written
    into ``xtx`` and ``noise_cov`` when those (p, p) arrays are given. G
    is singular when its smallest eigenvalue is at most
    GRAM_EIGENVALUE_FLOOR times its largest. The eigenvalues are only
    computed when the solve does not certify that they are not: for
    symmetric G, kappa_2 <= kappa_1 = ||G||_1 ||G^-1||_1, and kappa_1
    below 1 / (2 GRAM_EIGENVALUE_FLOOR) leaves a factor two for rounding.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    if n <= p:
        raise DimensionError(f"need n > p, got n={n}, p={p}")
    xtx = np.matmul(X.T, X, out=xtx)
    gram = xtx / n
    try:
        sol = np.linalg.solve(gram, np.column_stack([X.T @ y / n, np.eye(p)]))
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(sol[:, 1:], 1)
        certified = kappa1 * GRAM_EIGENVALUE_FLOOR < 0.5
    except np.linalg.LinAlgError:
        sol, certified = None, False
    if not certified:
        eig = np.linalg.eigvalsh(gram)
        if sol is None or eig[0] <= GRAM_EIGENVALUE_FLOOR * max(eig[-1], 0.0):
            raise ConditioningError(
                f"design Gram is numerically singular "
                f"(eigenvalue ratio {eig[0] / max(eig[-1], 1e-300):.2e})")
    # copy, so that no view keeps the whole solve buffer alive
    coef = sol[:, 0].copy()
    rss = float(np.sum((y - X @ coef) ** 2))
    sigma2 = max(rss, 0.0) / (n - p)
    noise_cov = np.multiply(sol[:, 1:], sigma2 / n, out=noise_cov)
    return GroupFit(coef, sigma2, n, noise_cov,
                    float(np.trace(noise_cov))), xtx


def ols_fit(X, y):
    """Least squares via the normal equations with a pivoted (LU) solve.

    Returns (coef, gram, sigma2) where gram = X'X/n and sigma2 is the
    residual variance on n - p degrees of freedom.
    """
    fit, xtx = lu_fit(X, y)
    return fit.coef, xtx / fit.n, fit.sigma2


def fit_all(ds, pattern):
    """OLS fits for every observed group, in one pass over the dataset.

    The groups are fitted one at a time, in ``observed_list`` order, into
    (G, p, p) blocks. Returns (GroupEstimates, pooled Gram), the X'X
    block summed into the pooled Gram. Errors from a small or singular
    group are re-raised naming it (as ``where``); of several, the first
    in ``observed_list`` order.
    """
    observed = pattern.observed_list()
    missing = [g for g in observed if g not in ds.groups]
    if missing:
        raise DimensionError(f"dataset lacks observed groups {missing[:5]}")
    G, p = len(observed), ds.p
    xtx, noise_cov = np.empty((G, p, p)), np.empty((G, p, p))

    def fit(i):
        g = observed[i]
        try:
            fit = lu_fit(*ds.groups[g], xtx[i], noise_cov[i])[0]
        except (ConditioningError, DimensionError) as exc:
            raise type(exc)(f"group {g}: {exc}", where=g) from exc
        return fit.coef, fit.sigma2, fit.n, fit.noise_trace

    coef, sigma2, n, noise_trace = map(
        np.array, zip(*[fit(i) for i in range(G)]))
    index = np.full(pattern.space, -1)
    index[tuple(np.array(observed).T - 1)] = np.arange(G)
    return (GroupEstimates(observed, coef, noise_cov, noise_trace, sigma2, n,
                           index), xtx.sum(axis=0) / n.sum())
