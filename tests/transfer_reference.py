"""Reference offset lasso: the finish certified by its own residual.

``lasso_offset`` here is the package's solver as it was when the exact
finish on FISTA's support carried its own KKT residual, formed from the
support's columns by ``_support_kkt``, rather than being checked by
``highdim.group_lasso_kkt`` on the one-group stack. The tests require
the package's ``lasso_offset`` to equal it bit for bit.
"""

import numpy as np

from tensordg.highdim import (GROUP_LASSO_MAX_ITER, GROUP_LASSO_TOL, PATH_TOL,
                              group_lasso)
from tensordg.transfer import _offset_stack


def _support_kkt(X, design, resp, support, coef, lam):
    """lasso_kkt of the offset that is ``coef`` on ``support`` and zero
    elsewhere, for the one-group design X (``design`` = X[:, support])
    and response ``resp``. The residual is formed from ``design``, so no
    zero column is multiplied. ``coef`` has no zero entry."""
    grad = ((design @ coef - resp) @ X) * (2.0 / resp.size)
    res = np.abs(grad) - lam
    res[support] = np.abs(grad[support] + lam * np.sign(coef))
    return float(res.max(initial=0.0))


def _finish(stack, delta, lam):
    """(finish, its lasso_kkt): the exact minimizer on the support S and
    signs s of ``delta``.

    With r the response of the one-group ``stack`` it solves
    (X_S'X_S) d = X_S'r - (n lam / 2) s; an empty S gives zero. When
    X_S'X_S is singular or the signs of d are not s, it returns
    (None, inf).
    """
    X, resp = stack.X[0], stack.y[0]
    support = np.flatnonzero(delta)
    design, sign = X[:, support], np.sign(delta[support])
    exact = np.zeros(0)
    if support.size:
        try:
            exact = np.linalg.solve(
                design.T @ design,
                design.T @ resp - (0.5 * stack.n_total * lam) * sign)
        except np.linalg.LinAlgError:
            return None, np.inf
        if not np.array_equal(np.sign(exact), sign):
            return None, np.inf
    finish = np.zeros_like(delta)
    finish[support] = exact
    return finish, _support_kkt(X, design, resp, support, exact, lam)


def lasso_offset(X, y, offset, lam, tol=GROUP_LASSO_TOL,
                 max_iter=GROUP_LASSO_MAX_ITER, history=None):
    """The offset lasso: FISTA to PATH_TOL * lam, then to ``tol`` from
    zero where the first finish is not certified."""
    stack = _offset_stack(X, y, offset)
    history = [] if history is None else history
    start = len(history)
    # one solve where the path tolerance is not the looser
    for stop in dict.fromkeys((max(PATH_TOL * lam, tol), tol)):
        del history[start:]
        delta = group_lasso(stack, lam, tol=stop, max_iter=max_iter,
                            history=history)[0]
        finish, res = _finish(stack, delta, lam)
        if res <= tol:
            return finish
    return delta
