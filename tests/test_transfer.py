"""Tests for the sparse-offset transfer estimator."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensordg import (ConvergenceError, DimensionError, GroupedDataset,
                      NonFiniteError, ScenarioConfig, build_pattern,
                      cross_validate_lambda, default_lambda, fit_all,
                      fit_tensordg, lasso_kkt, lasso_offset, make_scenario,
                      ols_fit, tensortl, tucker_assemble)
from tensordg import highdim, transfer
from tensordg.highdim import (GROUP_LASSO_TOL, _Stack, group_lasso,
                              group_lasso_kkt, lambda_grid)

import transfer_reference
from lasso_reference import cd_lasso


def make_truth(rng, p, space, ranks, scale=1.0):
    core = rng.normal(size=ranks) * scale
    factors = [np.linalg.qr(rng.normal(size=(d, r)))[0].T
               for d, r in zip((p,) + space, ranks)]
    return tucker_assemble(core, factors)


def make_dataset(rng, truth, pattern, n, noise=1.0):
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(n, truth.dims[0]))
        coef = truth.array[(slice(None),) + tuple(i - 1 for i in g)]
        y = X @ coef + noise * rng.normal(size=n)
        groups[g] = (X, y)
    return GroupedDataset(groups)


def objective(X, y, offset, delta, lam):
    resid = y - X @ (offset + delta)
    return float(resid @ resid) / y.size + lam * float(np.abs(delta).sum())


def test_lasso_full_shrinkage():
    """Penalty above twice the max absolute correlation kills
    every coordinate."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(25, 4))
    offset = rng.normal(size=4)
    y = X @ offset + rng.normal(size=25)
    r0 = y - X @ offset
    lam = 2.0 * float(np.max(np.abs(X.T @ r0))) / 25 + 1e-9
    assert np.array_equal(lasso_offset(X, y, offset, lam), np.zeros(4))


def test_lasso_orthonormal_closed_form():
    """With X'X/n = I each coordinate decouples:
    delta_j = soft_threshold(X_j' r0 / n, lam/2)."""
    rng = np.random.default_rng(1)
    n, p = 32, 5
    Q = np.linalg.qr(rng.normal(size=(n, p)))[0]
    X = Q * math.sqrt(n)
    offset = rng.normal(size=p)
    y = X @ (offset + np.array([0.8, 0.0, -0.4, 0.05, 0.0]))
    lam = 0.3
    corr = X.T @ (y - X @ offset) / n
    expect = np.sign(corr) * np.maximum(np.abs(corr) - lam / 2.0, 0.0)
    got = lasso_offset(X, y, offset, lam)
    assert np.allclose(got, expect, atol=1e-10)


def test_lasso_matches_grid_oracle():
    """p=2 instance: coordinate descent matches a fine lattice
    search of the objective."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    offset = np.array([0.5, -0.2])
    y = X @ (offset + np.array([0.7, -0.3])) + 0.1 * rng.normal(size=40)
    lam = 0.25
    got = lasso_offset(X, y, offset, lam)

    # expand the objective as a quadratic in delta to scan the lattice
    # without materializing residual matrices
    r0 = y - X @ offset
    c0 = float(r0 @ r0) / 40
    a = X.T @ r0 / 40
    B = X.T @ X / 40
    grid = np.arange(-1.5, 1.5001, 0.001)
    d1, d2 = np.meshgrid(grid, grid, indexing="ij")
    d1, d2 = d1.ravel(), d2.ravel()
    objs = (c0 - 2.0 * (a[0] * d1 + a[1] * d2)
            + B[0, 0] * d1 ** 2 + 2.0 * B[0, 1] * d1 * d2
            + B[1, 1] * d2 ** 2 + lam * (np.abs(d1) + np.abs(d2)))
    best = int(np.argmin(objs))
    assert abs(objective(X, y, offset, got, lam) - objs[best]) <= 1e-3
    assert abs(got[0] - d1[best]) <= 2e-3
    assert abs(got[1] - d2[best]) <= 2e-3


def test_lasso_kkt_certificate():
    """Returned solution satisfies the stationarity conditions."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 8))
    offset = rng.normal(size=8)
    delta_true = np.zeros(8)
    delta_true[[1, 4]] = [1.2, -0.9]
    y = X @ (offset + delta_true) + 0.2 * rng.normal(size=60)
    lam = 0.2
    delta = lasso_offset(X, y, offset, lam)
    resid = y - X @ (offset + delta)
    grad = 2.0 * (X.T @ resid) / 60
    for j in range(8):
        if delta[j] != 0.0:
            assert grad[j] == pytest.approx(lam * np.sign(delta[j]),
                                            abs=1e-6)
        else:
            assert abs(grad[j]) <= lam + 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_lasso_matches_coordinate_descent_reference(seed):
    """lasso_offset agrees with an independent coordinate-descent lasso
    on the offset residuals, on random designs with a nonzero offset."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(20, 81))
    p = int(rng.integers(3, 16))
    X = rng.normal(size=(n, p))
    offset = rng.normal(size=p)
    delta = np.where(rng.random(p) < 0.4, rng.normal(size=p), 0.0)
    y = X @ (offset + delta) + 0.5 * rng.normal(size=n)
    r0 = y - X @ offset
    lam = float(rng.uniform(0.05, 0.5)) * 2.0 * np.abs(X.T @ r0).max() / n
    got = lasso_offset(X, y, offset, lam)
    ref = cd_lasso(X, r0, lam)
    assert np.allclose(got, ref, atol=1e-6)
    assert np.array_equal(got != 0.0, ref != 0.0)


def test_lasso_objective_non_increasing():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 6))
    offset = np.zeros(6)
    y = X @ np.array([2.0, 0, -1.0, 0, 0.5, 0]) + rng.normal(size=50)
    history = []
    lasso_offset(X, y, offset, 0.1, history=history)
    assert np.all(np.diff(history) <= 1e-12)


def test_lasso_zero_column_stays_zero():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    X[:, 1] = 0.0
    y = X @ np.array([1.0, 0.0, -2.0]) + 0.1 * rng.normal(size=30)
    delta = lasso_offset(X, y, np.zeros(3), 0.05)
    assert delta[1] == 0.0


def test_lasso_small_lambda_approaches_ols():
    """With lam near zero and n > p, predictions match the
    plain OLS fit."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(80, 5))
    y = X @ rng.normal(size=5) + 0.3 * rng.normal(size=80)
    offset = np.zeros(5)
    delta = lasso_offset(X, y, offset, 1e-10, tol=1e-12)
    ols = ols_fit(X, y)[0]
    assert np.max(np.abs(X @ delta - X @ ols)) <= 1e-4


def test_lasso_nonconvergence_carries_residual():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 4))
    y = X @ np.array([3.0, -2.0, 1.0, 0.5]) + rng.normal(size=40)
    with pytest.raises(ConvergenceError) as err:
        lasso_offset(X, y, np.zeros(4), 0.01, max_iter=1)
    assert err.value.residual is not None and err.value.residual >= 0.0


def test_default_lambda_formula():
    """Pinned scale DEFAULT_C0 sqrt(log p / n)."""
    assert default_lambda(300, 150) == pytest.approx(
        2.0 * math.sqrt(math.log(300) / 150))
    with pytest.raises(DimensionError):
        default_lambda(1, 10)


def test_cross_validate_lambda_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 6))
    offset = np.zeros(6)
    y = X @ np.array([1.5, 0, 0, -1.0, 0, 0]) + 0.3 * rng.normal(size=60)
    lam1 = cross_validate_lambda(X, y, offset, seed=3)
    lam2 = cross_validate_lambda(X, y, offset, seed=3)
    assert lam1 == lam2 and lam1 > 0


@pytest.mark.parametrize("seed, message", [
    (1.7, "seed = 1.7: seeds must be integers"),
    (True, "seed = True: seeds must be integers"),
    (-1, "seed = -1: need seed >= 0"),
])
def test_cross_validate_lambda_rejects_a_bad_seed_by_name(seed, message):
    """A fold seed is never truncated: 1.7 and True folded as seed 1, and
    -1 failed inside numpy with a message naming nothing. The check
    comes first, so a seed is checked even where the grid is empty."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 6))
    offset = np.array([1.5, 0, 0, -1.0, 0, 0])
    # the offset fits the second y exactly: its answer is default_lambda
    for y in (X @ offset + 0.3 * rng.normal(size=60), X @ offset):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cross_validate_lambda(X, y, offset, seed=seed)


def per_fold_cv(X, y, offset, lambdas, folds=5, seed=0):
    """Reference CV: one lasso_offset solve per fold and penalty."""
    perm = np.random.default_rng(seed).permutation(y.size)
    best_lam, best_err = None, np.inf
    for lam in lambdas:
        err = 0.0
        for hold in np.array_split(perm, folds):
            train = np.setdiff1d(perm, hold, assume_unique=True)
            delta = lasso_offset(X[train], y[train], offset, lam)
            err += float(np.sum((y[hold] - X[hold] @ (offset + delta)) ** 2))
        if err < best_err * (1.0 - 1e-15):
            best_err, best_lam = err, float(lam)
    return best_lam


@pytest.mark.parametrize("n, p, seed", [(6, 3, 1), (7, 3, 5), (7, 6, 0),
                                        (13, 4, 3), (40, 8, 4), (62, 12, 5)])
def test_cross_validate_lambda_matches_per_fold_loop(n, p, seed):
    """All folds solved as one batch of problems pick the same penalty
    as a per-fold loop on lambda_grid of the one-group stack. n = 7
    with 5 folds gives training sizes 5/5/6/6/6, and n = 6 gives
    4/5/5/5/5: folds must be scaled fold by fold, not by one common
    factor, and the shorter folds are zero-padded."""
    rng = np.random.default_rng(200 + seed)
    X = rng.normal(size=(n, p))
    offset = rng.normal(size=p)
    delta = np.zeros(p)
    delta[rng.choice(p, 2, replace=False)] = [1.5, -1.0]
    y = X @ (offset + delta) + 0.5 * rng.normal(size=n)
    grid = lambda_grid(GroupedDataset({(0,): (X, y - X @ offset)}))
    assert (cross_validate_lambda(X, y, offset, seed=seed)
            == per_fold_cv(X, y, offset, grid, seed=seed))


def test_cross_validate_lambda_certifies_every_fold(monkeypatch):
    """At every penalty of the path, the batched solve meets each fold's
    own lasso_kkt on its training rows. The stack is a batch of the
    folds, (folds, 1, n_max, p), not a block-diagonal design."""
    rng = np.random.default_rng(21)
    n, p, seed = 47, 9, 2
    folds = transfer.CV_FOLDS
    X = rng.normal(size=(n, p))
    offset = rng.normal(size=p)
    delta = np.zeros(p)
    delta[[1, 5, 7]] = [1.0, -0.8, 0.6]
    y = X @ (offset + delta) + 0.5 * rng.normal(size=n)
    solves, group_lasso = [], highdim.group_lasso

    def recording(stack, lam, **kwargs):
        out = group_lasso(stack, lam, **kwargs)
        solves.append((stack.X.shape, lam, out[0]))
        return out

    monkeypatch.setattr(highdim, "group_lasso", recording)
    cross_validate_lambda(X, y, offset, seed=seed)
    perm = np.random.default_rng(seed).permutation(n)
    trains = [np.setdiff1d(perm, hold, assume_unique=True)
              for hold in np.array_split(perm, folds)]
    assert len(solves) == 20
    for shape, lam, deltas in solves:
        assert shape == (folds, 1, max(t.size for t in trains), p)
        for train, d in zip(trains, deltas):
            assert (lasso_kkt(X[train], y[train], offset, d, lam)
                    <= transfer.PATH_TOL * lam)


@pytest.mark.parametrize("seed", range(3))
def test_cross_validate_lambda_tie_margin_is_scale_free(seed):
    """With y scaled by s, X by 1/s and the offset by s^2 (s a power of
    two), the penalty grid, every gradient and so every solver stop are
    the same bits, while every held-out error is scaled by s^2 exactly.
    So CV must pick the same grid index at every s: an absolute tie
    margin of 1e-15 exceeds every error gain at s = 2^-40 and left the
    choice at the top of the grid. With y and the offset scaled by 2^k
    and X unchanged, the grid scales with them and CV must pick the same
    index of the scaled problem's own grid: path solves stopped at an
    absolute 1e-8 stayed at zero at k = -30 and did not converge at
    k = 30."""
    rng = np.random.default_rng(300 + seed)
    n, p = 150, 60
    X = rng.normal(size=(n, p))
    offset = rng.normal(size=p)
    delta = np.zeros(p)
    delta[rng.choice(p, 3, replace=False)] = [1.5, -1.0, 0.8]
    y = X @ (offset + delta) + rng.normal(size=n)
    grid = lambda_grid(GroupedDataset({(0,): (X, y - X @ offset)}))
    picks = []
    for s in (2.0 ** -40, 1.0, 2.0 ** 20):
        lam = cross_validate_lambda(X / s, s * y, s * s * offset, seed=seed)
        picks.append(int(np.flatnonzero(grid == lam)[0]))
    for k in (-30, 0, 30):
        m = 2.0 ** k
        scaled = GroupedDataset({(0,): (X, m * y - X @ (m * offset))})
        grid = lambda_grid(scaled)
        lam = cross_validate_lambda(X, m * y, m * offset, seed=seed)
        picks.append(int(np.flatnonzero(grid == lam)[0]))
    assert picks[1] > 0 and picks == [picks[1]] * 6


def test_selectors_stop_every_path_solve_relative_to_lambda(monkeypatch):
    """Every group_lasso solve of choose_lambda's and of
    cross_validate_lambda's path is asked for a KKT residual of
    PATH_TOL * lam, not the absolute final-fit tolerance."""
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 8))
    offset = rng.normal(size=8)
    y = X @ (offset + [1.0, 0, 0, -0.8, 0, 0, 0, 0]) + rng.normal(size=60)
    ds = GroupedDataset({(k,): (X[20 * k:20 * k + 20], y[20 * k:20 * k + 20])
                         for k in range(3)})
    solves, group_lasso = [], highdim.group_lasso

    def recording(stack, lam, **kwargs):
        solves.append((lam, kwargs.get("tol")))
        return group_lasso(stack, lam, **kwargs)

    monkeypatch.setattr(highdim, "group_lasso", recording)
    for select in (lambda: highdim.choose_lambda(ds),
                   lambda: cross_validate_lambda(X, y, offset)):
        del solves[:]
        select()
        assert len(solves) == highdim.LAMBDA_GRID_SIZE
        assert all(tol == highdim.PATH_TOL * lam for lam, tol in solves)


def non_finite_input(where):
    rng = np.random.default_rng(22)
    X = rng.normal(size=(30, 4))
    offset = rng.normal(size=4)
    y = X @ offset + rng.normal(size=30)
    if where == "X":
        X[3, 1] = -np.inf
    elif where == "y":
        y[11] = np.nan
    else:
        offset[2] = np.inf
    return X, y, offset


@pytest.mark.parametrize("where", ["X", "y", "offset"])
def test_lasso_offset_rejects_non_finite(where):
    """A NaN or inf in any argument is a NonFiniteError naming it, not
    an all-zero delta or a run to the iteration cap."""
    X, y, offset = non_finite_input(where)
    with pytest.raises(NonFiniteError, match=where) as info:
        lasso_offset(X, y, offset, 0.1)
    assert info.value.where == where


@pytest.mark.parametrize("where", ["X", "y", "offset"])
def test_lasso_kkt_rejects_non_finite(where):
    X, y, offset = non_finite_input(where)
    with pytest.raises(NonFiniteError, match=where) as info:
        lasso_kkt(X, y, offset, np.zeros(4), 0.1)
    assert info.value.where == where


@pytest.mark.parametrize("where", ["X", "y", "offset"])
def test_cross_validate_lambda_rejects_non_finite(where):
    """Fails before the grid is built, not with "penalty must be
    positive, got nan"."""
    X, y, offset = non_finite_input(where)
    with pytest.raises(NonFiniteError, match=where) as info:
        cross_validate_lambda(X, y, offset)
    assert info.value.where == where


def fit_noiseless_model(rng):
    p, space, ranks = 8, (5, 4), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=4.0)
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=40, noise=0.0)
    return truth, pattern, fit_tensordg(ds, pattern)


def test_tensortl_well_specified_noiseless():
    """Zero offset, noiseless everywhere: gamma_hat equals the
    target truth and delta_hat is identically zero."""
    rng = np.random.default_rng(9)
    truth, pattern, model = fit_noiseless_model(rng)
    g_star = (5, 4)
    gamma = truth.array[:, 4, 3]
    X = rng.normal(size=(30, 8))
    res = tensortl(model, g_star, X, X @ gamma)
    assert np.allclose(res.gamma_hat, gamma, atol=1e-7)
    assert np.array_equal(res.delta_hat, np.zeros(8))
    assert res.support == ()


def test_cross_validate_lambda_falls_back_on_exact_fit():
    """A target response that is exactly X beta_hat leaves no residual
    signal (lam_max = 0): CV returns default_lambda, and tensortl with
    cv=True keeps the completed coefficient with a zero offset."""
    rng = np.random.default_rng(23)
    truth, pattern, model = fit_noiseless_model(rng)
    for g_star in ((5, 4), (2, 3)):
        beta_hat = model.coefficient(g_star)
        X = rng.normal(size=(30, 8))
        y = X @ beta_hat
        assert cross_validate_lambda(X, y, beta_hat) == default_lambda(8, 30)
        res = tensortl(model, g_star, X, y, cv=True)
        assert res.lambda_used == default_lambda(8, 30)
        assert np.array_equal(res.delta_hat, np.zeros(8))
        assert np.array_equal(res.gamma_hat, beta_hat)


def test_tensortl_additivity_and_shrinkage_limit():
    """gamma_hat = beta_hat + delta_hat exactly; a huge
    penalty returns the completed coefficient untouched."""
    rng = np.random.default_rng(10)
    truth, pattern, model = fit_noiseless_model(rng)
    g_star = (2, 3)
    beta_hat = model.coefficient(g_star)
    delta_true = np.zeros(8)
    delta_true[:3] = [0.5, -0.5, 0.25]
    X = rng.normal(size=(50, 8))
    y = X @ (beta_hat + delta_true) + 0.1 * rng.normal(size=50)

    res = tensortl(model, g_star, X, y, lam=0.05)
    assert np.array_equal(res.gamma_hat, beta_hat + res.delta_hat)
    assert res.support == tuple(np.flatnonzero(res.delta_hat))

    res_inf = tensortl(model, g_star, X, y, lam=1e6)
    assert np.array_equal(res_inf.gamma_hat, beta_hat)


def test_tensortl_recovers_sparse_offset():
    """A strong 3-sparse offset on a well-estimated base is
    picked up: support of delta_hat contains the planted coordinates."""
    rng = np.random.default_rng(11)
    truth, pattern, model = fit_noiseless_model(rng)
    g_star = (1, 1)
    beta = truth.array[:, 0, 0]
    delta_true = np.zeros(8)
    delta_true[[0, 3, 6]] = [1.0, -1.2, 0.9]
    X = rng.normal(size=(150, 8))
    y = X @ (beta + delta_true) + 0.5 * rng.normal(size=150)
    res = tensortl(model, g_star, X, y)
    assert {0, 3, 6} <= set(res.support)
    assert np.linalg.norm(res.gamma_hat - (beta + delta_true)) < 0.5


@pytest.mark.parametrize("cv", [False, True])
def test_tensortl_checks_the_target_sample_once(monkeypatch, cv):
    """tensortl checks (X, y) in _samples and hands the CV and the
    offset lasso the one-group stack it built, which they take as it is,
    so no array is checked again; the penalty and offset are those of
    the public calls on the arrays."""
    rng = np.random.default_rng(13)
    _, _, model = fit_noiseless_model(rng)
    g_star = (2, 3)
    beta_hat = model.coefficient(g_star)
    X = rng.normal(size=(60, 8))
    y = X @ beta_hat + rng.normal(size=60)
    lam = (cross_validate_lambda(X, y, beta_hat, seed=4) if cv
           else transfer.default_lambda(8, 60))
    want = lasso_offset(X, y, beta_hat, lam)

    given, stack_of = [], transfer._offset_stack

    def recorded(X, y, offset):
        given.append(type(X))
        return stack_of(X, y, offset)
    monkeypatch.setattr(transfer, "_offset_stack", recorded)
    res = tensortl(model, g_star, X, y, cv=cv, seed=4)
    assert given == [_Stack] * (1 + cv)
    assert res.lambda_used == lam
    assert np.array_equal(res.delta_hat, want)


@pytest.mark.parametrize("where", ["y", "X"])
def test_tensortl_rejects_non_finite_target(where):
    """A NaN in the target response or an inf in the target design is an
    error naming the target group, not a silent delta_hat = 0."""
    rng = np.random.default_rng(12)
    _, _, model = fit_noiseless_model(rng)
    g_star = (2, 3)
    X = rng.normal(size=(50, 8))
    y = X @ model.coefficient(g_star) + rng.normal(size=50)
    if where == "y":
        y[17] = np.nan
    else:
        X[4, 2] = np.inf
    with pytest.raises(NonFiniteError, match=re.escape(str(g_star))) as info:
        tensortl(model, g_star, X, y)
    assert info.value.where == g_star


@functools.cache
def noiseless_model():
    return fit_noiseless_model(np.random.default_rng(12))[2]


@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       in_design=st.booleans(), n=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_tensortl_names_non_finite_target_fuzz(data, bad, in_design, n):
    """One NaN or inf anywhere in the target sample, of any size, is a
    NonFiniteError naming the target group."""
    model = noiseless_model()
    g_star = data.draw(st.sampled_from(model.pattern.unobserved_list()))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, 8))
    y = rng.normal(size=n)
    i = data.draw(st.integers(0, n - 1))
    if in_design:
        X[i, data.draw(st.integers(0, 7))] = bad
    else:
        y[i] = bad
    with pytest.raises(NonFiniteError, match=re.escape(str(g_star))) as info:
        tensortl(model, g_star, X, y)
    assert info.value.where == g_star


@pytest.mark.parametrize("seed", [0, 6, 13])
def test_lasso_offset_is_stable_under_one_ulp_of_offset(seed):
    """The exact finish makes the offset a smooth function of the data:
    a 1-ulp change of every offset entry moves delta by rounding only.
    FISTA alone stops anywhere within its tolerance, and moved delta by
    1.4e-8 to 2.7e-8 relative on these draws."""
    rng = np.random.default_rng(seed)
    n, p = 40, 30
    X = rng.normal(size=(n, p))
    offset = rng.normal(size=p)
    delta = np.zeros(p)
    delta[:3] = [1.0, -0.7, 0.5]
    y = X @ (offset + delta) + rng.normal(size=n)
    lam = default_lambda(p, n)
    a = lasso_offset(X, y, offset, lam)
    b = lasso_offset(X, y, np.nextafter(offset, np.inf), lam)
    assert np.flatnonzero(a).size > 0
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_lasso_offset_duplicated_column_falls_back_to_fista():
    """Two equal columns share the weight, so X_S'X_S is singular: the
    finish is rejected and FISTA's certified solution is returned."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 6))
    X[:, 4] = X[:, 1]
    offset = rng.normal(size=6)
    y = X @ (offset + np.array([0.0, 1.5, 0.0, -1.0, 0.0, 0.0])) \
        + 0.1 * rng.normal(size=50)
    lam = 0.1
    got = lasso_offset(X, y, offset, lam)
    assert got[1] != 0.0 and got[4] != 0.0
    fista = group_lasso(transfer._offset_stack(X, y, offset), lam)[0]
    assert got.tobytes() == fista.tobytes()
    assert lasso_kkt(X, y, offset, got, lam) <= 1e-8


def full_tolerance_offset(X, y, offset, lam, history):
    """The offset of a single solve to GROUP_LASSO_TOL from zero, then
    the exact finish on its support and signs, certified by
    group_lasso_kkt: lasso_offset without its first, looser stop."""
    stack = transfer._offset_stack(X, y, offset)
    delta = group_lasso(stack, lam, history=history)[0]
    support = np.flatnonzero(delta)
    if not support.size:
        return delta
    design, sign = stack.X[0][:, support], np.sign(delta[support])
    try:
        exact = np.linalg.solve(
            design.T @ design,
            design.T @ stack.y[0] - (0.5 * stack.n_total * lam) * sign)
    except np.linalg.LinAlgError:
        return delta
    finish = np.zeros_like(delta)
    finish[support] = exact
    if (np.array_equal(np.sign(exact), sign)
            and group_lasso_kkt(stack, {0: finish}, lam) <= GROUP_LASSO_TOL):
        return finish
    return delta


def reference_offsets():
    """(X, y, beta_hat, lam) of tensortl's offsets: three replications
    of the reference design at each of n_target 100 and 150 and
    delta_sparsity 0 and 3, nine targets each (108 offsets)."""
    for n_target in (100, 150):
        for sparsity in (0, 3):
            cfg = ScenarioConfig(n_target=n_target, delta_sparsity=sparsity,
                                 seed=5)
            for rep in range(3):
                scenario = make_scenario(cfg, rep)
                model = fit_tensordg(fit_all(scenario.train,
                                             scenario.pattern),
                                     scenario.pattern)
                for g, (X, y) in sorted(scenario.targets.items()):
                    yield (X, y, model.coefficient(g),
                           default_lambda(X.shape[1], y.size))


def test_early_finish_is_bitwise_the_full_tolerance_offset():
    """Stopping first at PATH_TOL * lam changes no offset: each is bitwise
    the full-tolerance solve's finish (or its FISTA solution where that
    finish fails). A zero offset may differ in the sign of its zeros,
    so -0.0 is mapped to 0.0 by adding 0.0. The loose stop certifies
    most offsets, so the solves take about half the iterations."""
    count, early_iters, full_iters = 0, 0, 0
    for X, y, offset, lam in reference_offsets():
        early, full = [], []
        got = lasso_offset(X, y, offset, lam, history=early)
        want = full_tolerance_offset(X, y, offset, lam, full)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        count += 1
        early_iters += len(early) - 1
        full_iters += len(full) - 1
    assert count >= 100
    assert early_iters < 0.7 * full_iters


def test_lasso_offset_rejects_an_uncertified_zero(monkeypatch):
    """A loose stop with an empty support returns zero only when zero is
    within tol; otherwise the solve to tol gives the offset."""
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 8))
    y = X @ np.array([0.3, 0, 0, 0, 0, 0, 0, 0]) + 0.5 * rng.normal(size=60)
    offset = np.zeros(8)
    lam_max = 2.0 * float(np.abs(X.T @ y).max()) / y.size
    lam = lam_max * (1.0 - 1e-6)     # just below the top of the path
    tols = []     # the tolerance of each solve

    def solve(stack, lam, tol, **kwargs):
        tols.append(tol)
        return group_lasso(stack, lam, tol=tol, **kwargs)
    monkeypatch.setattr(transfer, "group_lasso", solve)
    got = lasso_offset(X, y, offset, lam)
    # zero's residual, lam_max - lam, lies between the two tolerances
    assert GROUP_LASSO_TOL < lam_max - lam < transfer.PATH_TOL * lam
    assert tols == [transfer.PATH_TOL * lam, GROUP_LASSO_TOL]
    assert np.flatnonzero(got).size == 1
    assert lasso_kkt(X, y, offset, got, lam) <= GROUP_LASSO_TOL


def test_lasso_offset_matches_the_reference_finish():
    """The finish certified by group_lasso_kkt on the one-group stack is
    bitwise the finish certified by its own support residual
    (transfer_reference), with the same objective history: seeds 0-2 of
    two target sizes, every target, at default_lambda and 0.3 times it
    (108 offsets)."""
    count = 0
    for fields in ({"n_target": 150, "delta_sparsity": 3},
                   {"n_target": 30}):
        for seed in range(3):
            sc = make_scenario(ScenarioConfig(seed=seed, **fields), 0,
                               statistics=True)
            model = fit_tensordg(fit_all(sc.train, sc.pattern), sc.pattern)
            for g, (X, y) in sorted(sc.targets.items()):
                lam0 = default_lambda(X.shape[1], y.size)
                for lam in (lam0, 0.3 * lam0):
                    got_hist, want_hist = [], []
                    got = lasso_offset(X, y, model.coefficient(g), lam,
                                       history=got_hist)
                    want = transfer_reference.lasso_offset(
                        X, y, model.coefficient(g), lam, history=want_hist)
                    assert got.tobytes() == want.tobytes()
                    assert got_hist == want_hist
                    count += 1
    assert count == 108
