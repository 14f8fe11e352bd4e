"""The fit comparison passes on identical fits and fails on every change
a user would see: a support row, a penalty one grid step away, a rank,
a 1e-9 relative change of the tensor, and a solution that misses its
tolerance."""

import dataclasses

import numpy as np
import pytest

from fit_compare import assert_same_fit, assert_same_solve
from tensordg import DenseTensor, fit_highdim, group_lasso
from tensordg.highdim import LAMBDA_GRID_SIZE, LAMBDA_GRID_SPAN
from test_highdim import path_problem


@pytest.fixture(scope="module")
def problem():
    ds, pattern = path_problem(0)
    return ds, pattern, fit_highdim(ds, pattern)


def with_diagnostic(model, key, value):
    return dataclasses.replace(model,
                               diagnostics={**model.diagnostics, key: value})


def test_identical_fits_pass(problem):
    ds, pattern, model = problem
    assert_same_fit(model, model)
    assert_same_fit(fit_highdim(ds, pattern), model)


def changed_support(model):
    support = model.diagnostics["support"]
    outside = min(set(range(model.p)) - set(support))
    return with_diagnostic(model, "support", support[:-1] + (outside,))


def lambda_one_step_away(model):
    step = LAMBDA_GRID_SPAN ** (1.0 / (LAMBDA_GRID_SIZE - 1))
    return with_diagnostic(model, "lambda", model.diagnostics["lambda"] * step)


def changed_rank(model):
    return dataclasses.replace(model, ranks=(model.ranks[0] + 1,)
                               + model.ranks[1:])


def perturbed_tensor(model):
    arr = np.array(model.tensor.array)
    k = np.argmax(np.abs(arr))
    arr.flat[k] += 1e-9 * abs(arr.flat[k])
    return dataclasses.replace(model, tensor=DenseTensor(arr))


@pytest.mark.parametrize("change", [changed_support, lambda_one_step_away,
                                    changed_rank, perturbed_tensor])
def test_a_change_the_user_sees_fails(problem, change):
    model = problem[2]
    with pytest.raises(AssertionError):
        assert_same_fit(change(model), model)
    with pytest.raises(AssertionError):
        assert_same_fit(model, change(model))


def test_solves_compare_by_support_and_certificate(problem):
    ds, _, model = problem
    lam = model.diagnostics["lambda"]
    beta = group_lasso(ds, lam)
    assert_same_solve(ds, beta, {g: b.copy() for g, b in beta.items()}, lam,
                      1e-8)
    row, first = model.diagnostics["support"][0], min(beta)
    assert all(b[row] != 0.0 for b in beta.values())
    # a support row dropped: both the support and the certificate break
    dropped = {g: b.copy() for g, b in beta.items()}
    for b in dropped.values():
        b[row] = 0.0
    with pytest.raises(AssertionError, match="support"):
        assert_same_solve(ds, dropped, beta, lam, 1e-8)
    # the same support, but the solution misses its tolerance
    off = {g: b.copy() for g, b in beta.items()}
    off[first][row] *= 1.0 + 1e-6
    with pytest.raises(AssertionError, match="KKT"):
        assert_same_solve(ds, off, beta, lam, 1e-8)
