"""Reference stackers: the per-group dict-and-loop readers of the fits.

Each builds its stack from ``est.tilde`` one group at a time, as the
package did before the fits were held as row arrays. The tests require
the row-array gathers to equal these bit for bit, except where the
gather sums or lays out its numbers differently: the body tensor, which
keeps the gather's strided layout, and a noise-trace sum that numpy adds
pairwise. Those are compared by what the user sees (fit_compare).
"""

import numpy as np

from tensordg.errors import DimensionError
from tensordg.patterns import _insert
from tensordg.regression import GroupEstimates
from tensordg.tensor import DenseTensor


def stack_block(fits, tuples, t, levels):
    """Mode-t block of stacked estimates and its bias-corrected Gram.

    Column j stacks the coefficients of the groups that put ``levels[j]``
    at mode t and one of ``tuples`` on the other modes. Returns that
    matrix M and (M'M - diag(sum of noise_trace per column)) / #tuples,
    symmetrized.
    """
    cols, diag = [], []
    for lev in levels:
        block = [fits[_insert(rest, t, lev)] for rest in tuples]
        cols.append(np.concatenate([fit.coef for fit in block]))
        diag.append(sum(fit.noise_trace for fit in block))
    mat = np.column_stack(cols)
    gram = (mat.T @ mat - np.diag(diag)) / len(tuples)
    return mat, (gram + gram.T) / 2.0


def mode_gram(est, pattern, t):
    """Bias-corrected second-moment matrix for mode t.

    Mode 0 stacks all observed-group estimates and subtracts their
    averaged noise covariance; modes 1..q stack the C_t block columns by
    body level and subtract a diagonal trace correction (stack_block).
    """
    fits = est.tilde
    if t == 0:
        observed = pattern.observed_list()
        rows = np.vstack([fits[g].coef for g in observed])
        corr = sum(fits[g].noise_cov for g in observed)
        gram = (rows.T @ rows - corr) / len(observed)
        return (gram + gram.T) / 2.0

    if not 1 <= t <= pattern.q:
        raise ValueError(f"mode {t} out of range 0..{pattern.q}")
    return stack_block(fits, pattern.cset_tuples(t), t,
                       pattern.body[t - 1])[1]


def unfold_blocks(est, pattern, t):
    """Stacked estimate blocks used by the mode-t transport solve.

    Returns (joint, target). For t >= 1 the target block stacks the arm
    tuples against every level of mode t, and the joint block is its
    body-level columns, copied C-contiguous; rows are arm tuples crossed
    with the coefficient index, in lexicographic order. Mode 0 returns
    the observed-group coefficient stack as both blocks.
    """
    if t == 0:
        stack = np.vstack([est.tilde[g].coef
                           for g in pattern.observed_list()])
        return stack, stack
    if not 1 <= t <= pattern.q:
        raise ValueError(f"mode {t} out of range 0..{pattern.q}")
    target = stack_block(est.tilde, pattern.arm_tuples(t), t,
                         range(1, pattern.space[t - 1] + 1))[0]
    body = np.asarray(pattern.body[t - 1]) - 1
    return np.ascontiguousarray(target[:, body]), target


def _body_tensor(est, pattern):
    shape = tuple(len(levels) for levels in pattern.body)
    cols = [est.tilde[g].coef for g in pattern.body_groups()]
    return DenseTensor(np.stack(cols, axis=-1).reshape((-1,) + shape))


def _coef_matrix(estimates):
    """Stack per-group coefficient vectors as columns, sorted by group."""
    if isinstance(estimates, GroupEstimates):
        coefs = {g: fit.coef for g, fit in estimates.tilde.items()}
    else:
        coefs = {tuple(g): np.asarray(b, dtype=float)
                 for g, b in dict(estimates).items()}
    if not coefs:
        raise DimensionError("no source estimates to aggregate")
    order = sorted(coefs)
    return np.column_stack([coefs[g] for g in order]), order


def _with_fibers(base, coefs):
    """Copy of the coefficient tensor base with each group's fiber set."""
    arr = np.array(base.array)
    for g, coef in coefs.items():
        arr[(slice(None),) + tuple(i - 1 for i in g)] = coef
    return DenseTensor(arr)


def observed(est, scenario):
    """Zero tensor with the observed fibers set to their OLS fits."""
    return _with_fibers(DenseTensor(np.zeros(scenario.truth.dims)),
                        {g: est.tilde[g].coef
                         for g in scenario.pattern.observed_list()})
