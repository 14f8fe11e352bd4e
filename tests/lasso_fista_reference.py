"""Reference group lasso: the FISTA loop with a temporary per step.

``group_lasso`` is the package's solver as it was before the inner loop
wrote into preallocated buffers: every iteration allocates its iterates,
gradients and residuals. The buffered solver rounds its steps
differently, so the tests compare the two by what the user sees
(fit_compare): on one-group stacks, batched or not, and on the
multi-group stacks of fit_highdim, every solve has this loop's support
and meets its tolerance, and the fits pick its penalty and support.
"""

import math
from dataclasses import replace

import numpy as np

from tensordg.errors import ConvergenceError
from tensordg.highdim import (GROUP_LASSO_MAX_ITER, GROUP_LASSO_TOL, _kkt,
                              _loss_grad, _norms, _rows, _stack)


def group_lasso(ds, lam, tol=GROUP_LASSO_TOL, max_iter=GROUP_LASSO_MAX_ITER,
                init=None, history=None):
    """Monotone FISTA with adaptive restart on working sets, one new
    array per operation."""
    if not lam > 0:
        raise ValueError(f"penalty must be positive, got {lam}")
    stack = _stack(ds)
    x = np.zeros(stack.X.shape[:-2] + stack.X.shape[-1:])
    for k, g in enumerate(stack.order):
        if init is not None and g in init:
            x[..., k, :] = np.asarray(init[g], dtype=float)
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
        step = stack.n_total / (2.0 * np.linalg.eigvalsh(gram)[..., -1].max())
        xs, gx, solved = x[..., cols], grad[..., cols], False
        y, gy, t, restarted = xs, gx, 1.0, True
        while not solved and iters < max_iter:
            iters += 1
            v = y - step * gy
            z = v * (1.0 - step * lam / np.maximum(_norms(v), step * lam))
            loss, gz = _loss_grad(sub, z)
            fz = loss + lam * float(_norms(z).sum())
            if fz <= fx or restarted:
                solved = _norms(gz - gy - (z - y) / step).max() <= tol
                restarted = float(np.vdot(y - z, z - xs)) > 0.0
                x_old, g_old, xs, gx, fx = xs, gx, z, gz, fz
            else:
                restarted = True
            history.append(fx)
            if restarted:
                y, gy, t = xs, gx, 1.0
            else:
                t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
                mom = (t - 1.0) / t_next
                y, gy, t = (xs + mom * (xs - x_old), gx + mom * (gx - g_old),
                            t_next)
        x[..., cols] = xs
        grad = _loss_grad(stack, x)[1]
        if not solved:
            raise ConvergenceError(
                f"group lasso did not converge in {max_iter} iterations",
                residual=_kkt(x, grad, lam))
