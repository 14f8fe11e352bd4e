"""group_lasso on preallocated buffers: bitwise the reference loop that
allocates every temporary."""

import numpy as np
import pytest

import lasso_fista_reference as ref
from tensordg import cross_validate_lambda, fit_highdim, lasso_offset, transfer
from tensordg import highdim
from tensordg.highdim import lambda_grid
from test_highdim import RECOVERY_PATTERN, path_problem, recovery_problem


def twin(solve):
    """``solve`` that also runs the reference loop on the same arguments
    and requires the solution and the objective history to be its bits."""
    def both(data, lam, history=None, **kwargs):
        got, want = [], []
        out = solve(data, lam, history=got, **kwargs)
        expect = ref.group_lasso(data, lam, history=want, **kwargs)
        assert got == want
        assert out.keys() == expect.keys()
        for g in out:
            assert out[g].tobytes() == expect[g].tobytes()
        if history is not None:
            history.extend(got)
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
    grid: every iterate and history entry is the reference's."""
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
    with a batch axis: every warm-started path solve is the
    reference's, first steps included."""
    X, y, offset = offset_problem(seed, n, p)
    solve = twin(transfer.group_lasso)
    monkeypatch.setattr(transfer, "group_lasso", solve)
    cross_validate_lambda(X, y, offset, seed=seed)
    assert solve.calls == highdim.LAMBDA_GRID_SIZE


@pytest.mark.parametrize("design", ["path", "recovery"])
@pytest.mark.parametrize("seed", range(3))
def test_fit_highdim_bitwise_reference(monkeypatch, design, seed):
    """Multi-group stacks: the path and the full-data solve are the
    reference's bits, so fit_highdim picks the reference's penalty and
    support and gives its tensor byte for byte."""
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
    for model in (again, want):
        assert model.diagnostics["lambda"] == got.diagnostics["lambda"]
        assert model.diagnostics["support"] == got.diagnostics["support"]
        assert model.tensor.array.tobytes() == got.tensor.array.tobytes()
