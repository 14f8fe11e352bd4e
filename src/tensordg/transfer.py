"""Transfer learning onto a data-poor target group.

The target group's coefficient vector is modeled as the completed
tensor's prediction plus a sparse offset: gamma = beta(g*) + delta. The
offset is estimated by an l1-penalized regression of the target
residuals on the target design:

    delta_hat = argmin (1/n) ||y - X beta_hat - X delta||^2 + lam ||delta||_1

solved by highdim.group_lasso on a one-group stack: with one group a
row norm is |delta_j|, so the group-lasso objective is this one, and
its monotone FISTA with a KKT stop is the package's one sparse solver.
lasso_offset then finishes with one exact solve on FISTA's support and
signs, so a last-bit change of the data moves the offset by rounding,
not by up to the solver's tolerance. Given the support and signs the
finish does not depend on where FISTA stopped, so lasso_offset first
stops FISTA at the path tolerance PATH_TOL * lam and keeps that finish
when its lasso_kkt is within ``tol``. It is then, bit for bit, the
finish of a solve to ``tol`` that reaches the same signs, which on the
reference design appear at about 40% of such a solve's iterations.
Only where that finish fails does FISTA solve again from zero to
``tol``. The returned coefficient is
gamma_hat = beta_hat + delta_hat, which degrades gracefully: with no
usable target signal the lasso shrinks delta to zero and the answer
falls back to the completed tensor's coefficient. The stopping settings
(``tol``, an absolute KKT residual, ``max_iter`` and ``history``) belong
to lasso_offset alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError
from .highdim import (GROUP_LASSO_MAX_ITER, GROUP_LASSO_TOL, PATH_TOL,
                      _select, _Stack, group_lasso, group_lasso_kkt,
                      lambda_grid)
from .regression import _samples

__all__ = ["TransferResult", "lasso_offset", "lasso_kkt", "default_lambda",
           "cross_validate_lambda", "tensortl"]

DEFAULT_C0 = 2.0
CV_FOLDS = 5


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


def _offset_stack(X, y, offset):
    """The offset lasso as a one-group stack: design X, response
    y - X offset. Raises NonFiniteError naming the argument ("X", "y" or
    "offset") that holds NaN or infinite values. An X that is already
    such a stack (tensortl's, from a sample it checked) is returned as
    it is, and y and offset are not read."""
    if isinstance(X, _Stack):
        return X
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    offset = np.asarray(offset, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise DimensionError(
            f"design {X.shape} does not match {y.size} responses")
    if offset.size != X.shape[1]:
        raise DimensionError(
            f"offset has {offset.size} entries, expected {X.shape[1]}")
    for name, arr in (("X", X), ("y", y), ("offset", offset)):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{name} holds non-finite values",
                                 where=name)
    return _Stack((0,), X[None], (y - X @ offset)[None], y.size)


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
    """l1-penalized offset regression, solved by group_lasso.

    Minimizes (1/n)||y - X offset - X delta||^2 + lam ||delta||_1 over
    delta. With one group a row norm is |delta_j| and N = n, so this is
    group_lasso on the one-group stack (X, y - X offset): monotone FISTA
    that stops once its KKT bound is at most a given tolerance. Columns
    that are identically zero keep delta_j = 0. ``max_iter`` bounds the
    FISTA iterations of each solve, and ``history``, when a list,
    collects the objective after each iteration of the solve whose
    support gave the answer.

    FISTA stops anywhere within its tolerance of the minimizer, so its
    answer moves by that much with the last bits of the data. Given its
    support S and signs s, the minimizer is affine in the data
    (Tibshirani 2013): with r = y - X offset it solves
    (X_S'X_S) d = X_S'r - (n lam / 2) s. That exact finish is returned
    when its signs are s and its lasso_kkt is at most ``tol``
    (absolute).

    The finish depends on S and s alone, not on where FISTA stopped, so
    FISTA first stops at PATH_TOL * lam (when that is looser than
    ``tol``), as the path solves of highdim._select do. On the reference
    design the final signs appear at about 40% of a full solve's
    iterations, and this stop certifies the finish of almost every
    offset, which is then bitwise the one a full solve would give. An
    empty support there gives zero when zero is within ``tol``. Where
    the finish is not certified, FISTA solves again from zero until
    lasso_kkt is at most ``tol``; ``history`` then holds that solve
    alone, and that solve's finish is returned when certified, else
    FISTA's solution (also when X_S'X_S is singular).

    ``X`` may also be the one-group stack that tensortl builds from a
    sample it checked; ``y`` and ``offset`` are then not read.

    Raises ConvergenceError (carrying the final KKT residual) if a
    solve reaches the iteration limit first.
    """
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


def lasso_kkt(X, y, offset, delta, lam):
    """Stationarity residual of a candidate offset solution.

    Zero for an exact minimizer: active coordinates must satisfy
    (2/n) X_j' r = lam * sign(delta_j) and inactive ones
    |(2/n) X_j' r| <= lam, with r the full residual. This is
    group_lasso_kkt on the one-group stack of lasso_offset.
    """
    return group_lasso_kkt(_offset_stack(X, y, offset), {0: np.ravel(delta)},
                           lam)


def default_lambda(p, n):
    """Theoretical penalty scale DEFAULT_C0 * sqrt(log p / n)."""
    if p < 2 or n < 1:
        raise DimensionError(f"need p >= 2 and n >= 1, got p={p}, n={n}")
    return DEFAULT_C0 * math.sqrt(math.log(p) / n)


def cross_validate_lambda(X, y, offset, seed=0):
    """Pick the penalty with the best CV_FOLDS-fold held-out prediction
    error, by ``highdim._select`` with rule "min".

    The grid is ``highdim.lambda_grid`` of all rows; where its top
    penalty is zero (the offset fits y exactly) default_lambda is the
    answer. Folds come from a seeded permutation, so the choice is
    deterministic. The folds' lassos are one batched problem: fold k
    holds its training rows of X and of y - X offset scaled by
    sqrt(N / n_k), zero-padded to the largest fold. The batch's loss is
    then the sum of the folds' own (1/n_k) losses, each fold's gradient
    is its own and the l1 penalty separates, so group_lasso's tolerance
    bounds every fold's lasso_kkt. The stack holds CV_FOLDS * n_max * p
    floats (0.3 MB at n = 150, p = 60). ``X`` may also be the one-group
    stack that tensortl builds from a sample it checked; ``y`` and
    ``offset`` are then not read.
    """
    full = _offset_stack(X, y, offset)
    X, resid = full.X[0], full.y[0]
    n, p = X.shape
    if n < CV_FOLDS:
        raise DimensionError(f"need at least {CV_FOLDS} samples, got {n}")
    try:
        grid = lambda_grid(full)
    except DimensionError:
        return default_lambda(max(p, 2), n)
    perm = np.random.default_rng(int(seed)).permutation(n)
    splits = np.array_split(perm, CV_FOLDS)
    trains = [np.setdiff1d(perm, hold, assume_unique=True) for hold in splits]
    n_total = sum(train.size for train in trains)
    design = np.zeros((CV_FOLDS, 1, max(train.size for train in trains), p))
    response = np.zeros(design.shape[:-1])
    for k, train in enumerate(trains):
        scale = math.sqrt(n_total / train.size)
        design[k, 0, :train.size] = scale * X[train]
        response[k, 0, :train.size] = scale * resid[train]
    stack = _Stack((0,), design, response, n_total)
    return _select(stack, grid, lambda deltas: np.concatenate(
        [(resid[hold] - X[hold] @ delta) ** 2
         for hold, delta in zip(splits, deltas[0])]), "min")[0]


def tensortl(model, g_star, X, y, lam=None, cv=False, seed=0):
    """Transfer the completed tensor's coefficient onto a target group.

    Takes beta_hat for ``g_star`` from the completion model, estimates
    the sparse offset on the target sample, and returns
    TransferResult(gamma_hat = beta_hat + delta_hat, ...). When ``lam``
    is omitted the penalty defaults to default_lambda, or to the
    cross-validated choice (folds seeded by ``seed``) when ``cv`` is
    set. The offset is lasso_offset's, so it is the exact finish on
    FISTA's support when that certifies, else FISTA's own solution.
    A target sample that is not (n, p), or that holds NaN or infinite
    values, raises DimensionError or NonFiniteError naming ``g_star``.
    """
    beta_hat = model.coefficient(g_star)
    X, y = _samples(X, y, beta_hat.size, g_star)
    # the sample is checked once: the CV and the offset lasso take the
    # one-group stack as built
    stack = _Stack((0,), X[None], (y - X @ beta_hat)[None], y.size)
    if lam is None:
        if cv:
            lam = cross_validate_lambda(stack, None, None, seed=seed)
        else:
            lam = default_lambda(beta_hat.size, y.size)
    delta = lasso_offset(stack, None, None, float(lam))
    support = tuple(int(j) for j in np.flatnonzero(delta))
    return TransferResult(beta_hat + delta, delta, float(lam), support)
