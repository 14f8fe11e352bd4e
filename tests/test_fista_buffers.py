"""group_lasso on preallocated buffers against the reference loop that
allocates every temporary, compared by what the user sees (fit_compare):
every solve keeps the reference's support and meets its own tolerance,
and the fits choose the reference's penalty, support and tensor."""

import numpy as np
import pytest

import lasso_fista_reference as ref
from fit_compare import assert_same_fit, assert_same_solve
from tensordg import cross_validate_lambda, fit_highdim, lasso_offset, transfer
from tensordg import highdim
from tensordg.highdim import GROUP_LASSO_TOL, lambda_grid
from test_highdim import RECOVERY_PATTERN, path_problem, recovery_problem


def twin(solve):
    """``solve`` that also runs the reference loop on the same arguments
    and requires both solutions to have one support and meet the solve's
    tolerance."""
    def both(data, lam, history=None, **kwargs):
        out = solve(data, lam, history=history, **kwargs)
        expect = ref.group_lasso(data, lam, **kwargs)
        assert_same_solve(data, out, expect, lam,
                          kwargs.get("tol", GROUP_LASSO_TOL))
        both.calls += 1
        return out
    both.calls = 0
    return both


def offset_problem(seed, n=60, p=25):
    rng = np.random.default_rng(400 + seed)
    X = rng.normal(size=(n, p))
    X[:, rng.choice(p, 2, replace=False)] = 0.0
    offset = rng.normal(size=p)
    delta = np.where(rng.random(p) < 0.2, rng.normal(size=p), 0.0)
    return X, X @ (offset + delta) + rng.normal(size=n), offset


@pytest.mark.parametrize("seed", range(4))
def test_lasso_offset_bitwise_reference(monkeypatch, seed):
    """One-group stacks, with two zero columns, at penalties across the
    grid: every solve has the reference's support and is certified."""
    X, y, offset = offset_problem(seed)
    solve = twin(transfer.group_lasso)
    monkeypatch.setattr(transfer, "group_lasso", solve)
    stack = transfer._offset_stack(X, y, offset)
    for lam in lambda_grid(stack)[1::3]:
        history = []
        delta = lasso_offset(X, y, offset, float(lam), history=history)
        assert np.all(delta[np.all(X == 0.0, axis=0)] == 0.0)
        assert len(history) > 1
    assert solve.calls == 7


@pytest.mark.parametrize("n, p, seed", [(7, 3, 5), (47, 9, 2), (150, 60, 1)])
def test_cross_validate_lambda_bitwise_reference(monkeypatch, n, p, seed):
    """The batched CV folds, (folds, 1, n_max, p), are a one-group stack
    with a batch axis: every warm-started path solve has the reference's
    support and is certified, and CV picks the reference's penalty."""
    X, y, offset = offset_problem(seed, n, p)
    solve = twin(transfer.group_lasso)
    monkeypatch.setattr(transfer, "group_lasso", solve)
    got = cross_validate_lambda(X, y, offset, seed=seed)
    assert solve.calls == highdim.LAMBDA_GRID_SIZE
    monkeypatch.setattr(transfer, "group_lasso", ref.group_lasso)
    assert_same_fit(got, cross_validate_lambda(X, y, offset, seed=seed),
                    "lambda")


@pytest.mark.parametrize("design", ["path", "recovery"])
@pytest.mark.parametrize("seed", range(3))
def test_fit_highdim_bitwise_reference(monkeypatch, design, seed):
    """Multi-group stacks: the path and the full-data solve have the
    reference's supports and are certified, so fit_highdim picks the
    reference's penalty and support and gives its ranks and tensor."""
    if design == "path":
        ds, pattern = path_problem(seed)
    else:
        ds, pattern = recovery_problem(seed)[0], RECOVERY_PATTERN
    got = fit_highdim(ds, pattern, seed=seed)
    solve = twin(highdim.group_lasso)
    monkeypatch.setattr(highdim, "group_lasso", solve)
    again = fit_highdim(ds, pattern, seed=seed)
    assert solve.calls == highdim.LAMBDA_GRID_SIZE + 1
    monkeypatch.setattr(highdim, "group_lasso", ref.group_lasso)
    want = fit_highdim(ds, pattern, seed=seed)
    assert_same_fit(again, got)
    assert_same_fit(got, want)
