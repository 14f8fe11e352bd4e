"""Cyclic coordinate-descent lasso, kept as an independent reference.

The package solves the offset lasso with group_lasso's FISTA; tests
compare it against this plain soft-thresholding loop.
"""

import numpy as np


def cd_lasso(X, r, lam, tol=1e-12, max_sweeps=100_000):
    """argmin over d of (1/n)||r - X d||^2 + lam ||d||_1.

    Sweeps coordinates in order 1..p, soft-thresholding each, until no
    coordinate moves more than ``tol`` in a sweep. Zero columns keep
    d_j = 0.
    """
    n, p = X.shape
    col_ms = np.einsum("ij,ij->j", X, X) / n
    delta, resid = np.zeros(p), np.array(r, dtype=float)
    for _ in range(max_sweeps):
        max_move = 0.0
        for j in np.flatnonzero(col_ms > 0.0):
            rho = X[:, j] @ resid / n + col_ms[j] * delta[j]
            new = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0) / col_ms[j]
            move = new - delta[j]
            if move != 0.0:
                resid -= X[:, j] * move
                delta[j] = new
                max_move = max(max_move, abs(move))
        if max_move < tol:
            return delta
    raise AssertionError(f"reference lasso did not converge in {max_sweeps} "
                         f"sweeps")
