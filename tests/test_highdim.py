"""Tests for joint support selection and the high-dimensional fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensordg import (ConvergenceError, DimensionError, GroupedDataset,
                      NonFiniteError, build_pattern, choose_lambda,
                      fit_highdim, fit_tensordg, group_lasso, group_lasso_kkt,
                      lasso_kkt, lasso_offset, select_support,
                      tucker_assemble)
from tensordg import highdim
from tensordg.highdim import _stack, _Stack, lambda_grid

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


def two_group_ds(rng, n=40, p=6, sparse=True):
    betas = {}
    for g in ((1,), (2,)):
        b = rng.normal(size=p)
        if sparse:
            b[p // 2:] = 0.0
        betas[g] = b
    groups = {}
    for g, b in betas.items():
        X = rng.normal(size=(n, p))
        groups[g] = (X, X @ b + 0.2 * rng.normal(size=n))
    return GroupedDataset(groups), betas


def test_group_lasso_full_shrinkage():
    """Penalty above the zero-point gradient row norms keeps
    every coefficient at zero."""
    rng = np.random.default_rng(0)
    ds, _ = two_group_ds(rng)
    lam = float(lambda_grid(ds)[0]) + 1e-9
    beta = group_lasso(ds, lam)
    for b in beta.values():
        assert np.array_equal(b, np.zeros(ds.p))


def test_group_lasso_single_group_reduces_to_lasso():
    """With one group the objective is the lasso's at the same penalty,
    so the minimizer agrees with a coordinate-descent lasso."""
    rng = np.random.default_rng(1)
    n, p = 50, 6
    X = rng.normal(size=(n, p))
    beta = np.array([1.5, 0.0, -0.8, 0.0, 0.4, 0.0])
    y = X @ beta + 0.3 * rng.normal(size=n)
    ds = GroupedDataset({(1,): (X, y)})
    lam = 0.2
    got = group_lasso(ds, lam)[(1,)]
    ref = cd_lasso(X, y, lam)
    assert np.allclose(got, ref, atol=1e-6)


def test_group_lasso_orthonormal_closed_form():
    """Orthonormal designs decouple the coordinates: each row
    is the group soft-threshold of the per-group OLS coordinates.

    With X_g' X_g / n_g = I and equal sizes, the smooth part separates
    over rows j as (n_g/N) sum_g (b_{g,j} - z_{g,j})^2 + const, so the
    minimizer is row z_j scaled by max(0, 1 - lam / (2 w ||z_j||)) with
    w = n_g / N = 1/2.
    """
    rng = np.random.default_rng(2)
    n, p = 32, 5
    designs = {}
    zs = {}
    groups = {}
    for g in ((1,), (2,)):
        Q = np.linalg.qr(rng.normal(size=(n, p)))[0]
        X = Q * math.sqrt(n)
        b = rng.normal(size=p) * np.array([1.0, 0.0, 1.0, 0.05, 0.0])
        y = X @ b + 0.1 * rng.normal(size=n)
        groups[g] = (X, y)
        zs[g] = X.T @ y / n
    ds = GroupedDataset(groups)
    lam = 0.4
    got = group_lasso(ds, lam)
    Z = np.column_stack([zs[(1,)], zs[(2,)]])
    norms = np.linalg.norm(Z, axis=1)
    scale = np.maximum(0.0, 1.0 - lam / (2.0 * 0.5 * np.maximum(norms,
                                                                1e-300)))
    expect = Z * scale[:, None]
    assert np.allclose(got[(1,)], expect[:, 0], atol=1e-6)
    assert np.allclose(got[(2,)], expect[:, 1], atol=1e-6)


def test_group_lasso_kkt_certificate_and_monotone():
    rng = np.random.default_rng(3)
    ds, _ = two_group_ds(rng, n=60, p=8)
    history = []
    beta = group_lasso(ds, 0.15, history=history)
    assert group_lasso_kkt(ds, beta, 0.15) < 1e-6
    assert np.all(np.diff(history) <= 1e-12)


def loop_gradient(ds, beta):
    """Smooth-part gradient per group, one unpadded design at a time."""
    n_total = sum(y.size for _, y in ds.groups.values())
    return np.array([2.0 * X.T @ (X @ beta[g] - y) / n_total
                     for g, (X, y) in sorted(ds.groups.items())])


def loop_kkt(grad, B, lam):
    """group_lasso_kkt row by row; rows j are columns of the (K, p) arrays."""
    worst = 0.0
    for j in range(B.shape[1]):
        norm = np.linalg.norm(B[:, j])
        if norm > 0.0:
            res = np.linalg.norm(grad[:, j] + lam * B[:, j] / norm)
        else:
            res = max(np.linalg.norm(grad[:, j]) - lam, 0.0)
        worst = max(worst, res)
    return worst


@given(data=st.data(), p=st.integers(4, 20), seed=st.integers(0, 10**6),
       frac=st.floats(0.02, 0.5))
@settings(max_examples=40, deadline=None)
def test_group_lasso_unequal_sizes_padding(data, p, seed, frac):
    """Groups of unequal size, some below p and some above, zero-padded
    into one stack: the solution meets the KKT conditions computed group
    by group without padding, rows inside the penalty ball are exactly
    zero and the objective never rises."""
    sizes = [data.draw(st.integers(2, p - 1)),
             data.draw(st.integers(p + 1, 3 * p))]
    sizes += data.draw(st.lists(st.integers(2, 3 * p), max_size=2))
    rng = np.random.default_rng(seed)
    groups = {}
    for g, n in enumerate(sizes, start=1):
        X = rng.normal(size=(n, p))
        b = np.where(rng.random(p) < 0.4, rng.normal(size=p), 0.0)
        groups[(g,)] = (X, X @ b + rng.normal(size=n))
    ds = GroupedDataset(groups)
    lam = frac * float(lambda_grid(ds)[0])
    history = []
    beta = group_lasso(ds, lam, history=history)
    grad = loop_gradient(ds, beta)
    B = np.array([beta[g] for g in sorted(beta)])
    assert loop_kkt(grad, B, lam) <= 1e-7
    assert group_lasso_kkt(ds, beta, lam) <= 1e-7
    inside = np.linalg.norm(grad, axis=0) < lam - 1e-6
    assert np.all(B[:, inside] == 0.0)
    assert np.all(np.diff(history) <= 1e-12)


@given(data=st.data(), p=st.integers(2, 12), seed=st.integers(0, 10**6),
       frac=st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_group_lasso_batch_of_independent_problems(data, p, seed, frac):
    """B one-group lassos of unequal n, zero-padded along a leading
    batch axis and scaled by sqrt(N / n_b), are solved as one problem:
    each meets its own lasso_kkt on its unpadded rows and matches its
    separate lasso_offset solve."""
    sizes = data.draw(st.lists(st.integers(5, 40), min_size=2, max_size=6))
    rng = np.random.default_rng(seed)
    problems = []
    for n in sizes:
        X = rng.normal(size=(n, p))
        b = np.where(rng.random(p) < 0.5, rng.normal(size=p), 0.0)
        problems.append((X, X @ b + rng.normal(size=n)))
    lam = frac * max(2.0 * float(np.abs(X.T @ y).max()) / y.size
                     for X, y in problems)
    n_total = sum(sizes)
    design = np.zeros((len(sizes), 1, max(sizes), p))
    response = np.zeros(design.shape[:-1])
    for b, (X, y) in enumerate(problems):
        scale = math.sqrt(n_total / y.size)
        design[b, 0, :y.size], response[b, 0, :y.size] = scale * X, scale * y
    tol = 1e-10
    deltas = group_lasso(_Stack((0,), design, response, n_total), lam,
                         tol=tol)[0]
    assert deltas.shape == (len(sizes), p)
    zero = np.zeros(p)
    for (X, y), delta in zip(problems, deltas):
        assert lasso_kkt(X, y, zero, delta, lam) <= tol
        assert np.max(np.abs(delta - lasso_offset(X, y, zero, lam, tol=tol))
                      ) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_group_lasso_batch_of_one_is_bitwise_unbatched(seed):
    """A leading batch axis of size 1 changes no bit of the solution or
    of the objective history."""
    rng = np.random.default_rng(seed)
    groups = {}
    for g, n in zip(((1,), (2,), (3,)), (12, 30, 21)):
        X = rng.normal(size=(n, 16))
        b = np.where(rng.random(16) < 0.3, rng.normal(size=16), 0.0)
        groups[g] = (X, X @ b + rng.normal(size=n))
    stack = _stack(GroupedDataset(groups))
    batch = _Stack(stack.order, stack.X[None], stack.y[None], stack.n_total)
    lam = 0.2 * float(lambda_grid(stack)[0])
    h_one, h_batch = [], []
    one = group_lasso(stack, lam, history=h_one)
    batched = group_lasso(batch, lam, history=h_batch)
    assert h_one == h_batch
    for g in stack.order:
        assert batched[g].shape == (1, 16)
        assert np.array_equal(batched[g][0], one[g])


def test_group_lasso_iteration_cap_raises():
    """One iteration cannot meet the certificate: ConvergenceError
    carries the finite KKT residual of the last iterate."""
    rng = np.random.default_rng(8)
    ds, _ = two_group_ds(rng, n=60, p=8)
    with pytest.raises(ConvergenceError) as info:
        group_lasso(ds, 0.15, max_iter=1)
    assert np.isfinite(info.value.residual)
    assert info.value.residual > 1e-8


def test_group_lasso_warm_start_at_solution():
    """Warm-started at its own solution, the solver certifies it
    within a few iterations and barely moves."""
    rng = np.random.default_rng(9)
    ds, _ = two_group_ds(rng, n=60, p=8)
    beta = group_lasso(ds, 0.15)
    history = []
    again = group_lasso(ds, 0.15, init=beta, history=history)
    assert len(history) - 1 <= 3
    for g in beta:
        assert np.allclose(again[g], beta[g], atol=1e-8)


@pytest.mark.parametrize("bad, error, match", [
    (np.nan, NonFiniteError, "non-finite"),
    (-np.inf, NonFiniteError, "non-finite"),
    ("short", DimensionError, "shape"),
    ("stranger", DimensionError, "no data")])
def test_group_lasso_rejects_bad_warm_start(bad, error, match):
    """A warm start with a NaN or inf entry, of the wrong length or for a
    group the data lack raises an error naming that group, not a
    non-finite solution, a bare broadcast error or silence."""
    rng = np.random.default_rng(9)
    ds, _ = two_group_ds(rng, n=60, p=8)
    init = {g: np.zeros(8) for g in ds.groups}
    where = (2,)
    if bad == "short":
        init[where] = np.zeros(7)
    elif bad == "stranger":
        where = (3,)
        init[where] = np.zeros(8)
    else:
        init[where][4] = bad
    with pytest.raises(error, match=match) as info:
        group_lasso(ds, 0.15, init=init)
    assert info.value.where == where
    assert str(where) in str(info.value)


@given(seed=st.integers(0, 10**6), batch=st.integers(0, 2),
       k=st.integers(1, 4), n=st.integers(1, 30), w=st.integers(1, 30),
       rank_one=st.booleans(), exponent=st.sampled_from([-40, 0, 40]))
@settings(max_examples=100, deadline=None)
def test_top_bound_covers_every_largest_eigenvalue(seed, batch, k, n, w,
                                                   rank_one, exponent):
    """The step bound is at least the stacked eigvalsh maximum, up to
    rounding, and at most m^(1/16) times it, for the Grams group_lasso
    forms (X'X, or XX' when w > n): rank-one designs, groups zero-padded
    to unequal n, batch axes and entries scaled by 2^-40 to 2^40."""
    rng = np.random.default_rng(seed)
    shape = (2,) * batch + (k, n, w)
    X = rng.normal(size=shape)
    if rank_one:
        X = rng.normal(size=shape[:-1] + (1,)) * rng.normal(size=w)
    X[np.arange(n) >= rng.integers(1, n + 1, size=shape[:-2] + (1,))] = 0.0
    X *= 2.0 ** exponent
    Xt = X.swapaxes(-1, -2)
    gram = Xt @ X if w <= n else X @ Xt
    top = float(np.linalg.eigvalsh(gram)[..., -1].max())
    bound = highdim._top_bound(gram)
    assert (1.0 - 1e-12) * top <= bound
    assert bound <= (1.0 + 1e-12) * gram.shape[-1] ** 0.0625 * top


def one_group_zero_column(rng, n=20):
    """One group whose design column 2 is zero, and its response."""
    X = rng.normal(size=(n, 4))
    X[:, 2] = 0.0
    return GroupedDataset({(1,): (X, X @ [1.0, -1.0, 0.0, 0.5]
                                  + rng.normal(size=n))})


@pytest.mark.parametrize("share", [100.0, 0.3])
def test_group_lasso_zero_gram_working_set(share):
    """A warm start on a column that is zero in every group. Above
    lambda_max no other row joins, so the working set's Gram is zero:
    the row is set to zero with no FISTA run and no 0/0 (a numpy warning
    fails the test), and the violator check returns zero. Below it the
    other rows join, FISTA shrinks the row to zero and certifies."""
    ds = one_group_zero_column(np.random.default_rng(3))
    lam = share * float(lambda_grid(ds)[0])
    history = []
    beta = group_lasso(ds, lam, init={(1,): [0.0, 0.0, 1.0, 0.0]},
                       history=history)[(1,)]
    assert beta[2] == 0.0
    assert np.all(np.diff(history) <= 1e-12)
    assert group_lasso_kkt(ds, {(1,): beta}, lam) <= 1e-8
    if share > 1.0:
        y = ds.groups[(1,)][1]
        assert np.array_equal(beta, np.zeros(4))
        assert history == [float(y @ y) / y.size + lam, float(y @ y) / y.size]
    else:
        assert np.count_nonzero(beta) > 0


def test_select_support_rules():
    """Zero coefficients give the empty support; the row-norm
    rule keeps exactly the rows at or above the penalty."""
    beta = {(1,): np.zeros(3), (2,): np.zeros(3)}
    assert select_support(beta, 0.5) == ()
    assert select_support({(1,): np.array([3.0, 0.0, 0.0])}, 1.0) == (0,)
    two = {(1,): np.array([0.8, 0.0]), (2,): np.array([0.6, 0.3])}
    # row norms: (1.0, 0.3)
    assert select_support(two, 1.0) == (0,)
    assert select_support(two, 0.2) == (0, 1)
    with pytest.raises(ValueError):
        select_support({(1,): np.array([np.nan])}, 0.1)


# The three groups of recovery_problem as the whole of a one-mode space.
RECOVERY_PATTERN = build_pattern((3,), body=[(1, 2, 3)], arm_subsets=[[]])


def recovery_problem(rep, p=300, s=5, n=150):
    """Planted joint support of size s with strong signals of random sign
    in three groups, p > n. Returns the dataset and the support."""
    rng = np.random.default_rng(1000 + rep)
    support = rng.choice(p, size=s, replace=False)
    groups = {}
    for g in RECOVERY_PATTERN.observed_list():
        b = np.zeros(p)
        signs = rng.choice([-1.0, 1.0], size=s)
        b[support] = signs * (2.0 + rng.uniform(0, 1, size=s))
        X = rng.normal(size=(n, p))
        groups[g] = (X, X @ b + rng.normal(size=n))
    return GroupedDataset(groups), support


def test_support_recovery_monte_carlo():
    """Planted joint support of size 5 with strong signals,
    n=150 per group, p=300: the holdout-selected penalty recovers the
    support in at least 90 of 100 replications."""
    hits = 0
    for rep in range(100):
        ds, support = recovery_problem(rep)
        lam, _ = choose_lambda(ds, seed=rep)
        beta = group_lasso(ds, lam)
        if set(select_support(beta, lam)) == set(int(j) for j in support):
            hits += 1
    assert hits >= 90, f"support recovered in only {hits}/100 replications"


def highdim_scenario(rng, p=40, s=6):
    """Sparse low-dim truth embedded in p coordinates."""
    space, ranks = (4, 4), (3, 2, 2)
    low = make_truth(rng, s, space, ranks, scale=6.0)
    support = np.sort(rng.choice(p, size=s, replace=False))
    full = np.zeros((p,) + space)
    full[support] = low.array
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    return full, support, pattern


def test_fit_highdim_selected_support_noiseless():
    """End-to-end with selection at a penalty inside the
    separation window: planted support recovered, tensor exact, and
    off-support rows identically zero."""
    rng = np.random.default_rng(14)
    full, support, pattern = highdim_scenario(rng)
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(30, full.shape[0]))
        coef = full[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef)
    ds = GroupedDataset(groups)
    model = fit_highdim(ds, pattern)
    got_support = model.diagnostics["support"]
    assert set(got_support) == set(int(j) for j in support)
    assert np.allclose(model.tensor.array, full, atol=1e-4)
    off = [j for j in range(full.shape[0]) if j not in got_support]
    assert np.array_equal(model.tensor.array[off], np.zeros_like(
        model.tensor.array[off]))


def test_fit_highdim_chooses_lambda_once_and_warm_starts(monkeypatch):
    """Without a penalty, fit_highdim calls choose_lambda once, through
    the module attribute (so a traced run records the path under it),
    and the full-data solve starts from that call's solution."""
    rng = np.random.default_rng(14)
    full, support, pattern = highdim_scenario(rng)
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(30, full.shape[0]))
        coef = full[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef)
    ds = GroupedDataset(groups)
    chosen, solves = [], []
    choose, solve = highdim.choose_lambda, highdim.group_lasso

    def counting_choose(*args, **kwargs):
        chosen.append(choose(*args, **kwargs))
        return chosen[-1]

    def recording_solve(data, lam, **kwargs):
        solves.append((data, lam, kwargs.get("init")))
        return solve(data, lam, **kwargs)

    monkeypatch.setattr(highdim, "choose_lambda", counting_choose)
    monkeypatch.setattr(highdim, "group_lasso", recording_solve)
    model = fit_highdim(ds, pattern)
    assert len(chosen) == 1
    lam, warm = chosen[0]
    assert model.diagnostics["lambda"] == lam
    data, final_lam, init = solves[-1]
    assert data is ds and final_lam == lam and init is warm


def path_problem(seed, p=80, n=40):
    """A small noisy problem shaped like the highdim_path benchmark: a
    Tucker truth on 6 of p rows, n < p samples in each of 13 groups."""
    rng = np.random.default_rng(seed)
    full, _, pattern = highdim_scenario(rng, p=p)
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(n, p))
        coef = full[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef + rng.normal(size=n))
    return GroupedDataset(groups), pattern


def reference_choose_lambda(ds, seed=0):
    """choose_lambda's holdout split and 1se rule, with every path solve
    certified to the final-fit tolerance GROUP_LASSO_TOL."""
    rng = np.random.default_rng(seed)
    train, valid = {}, {}
    for g, (X, y) in sorted(ds.groups.items()):
        n_hold = max(int(round(highdim.HOLDOUT * y.size)), 1)
        perm = rng.permutation(y.size)
        valid[g] = (X[perm[:n_hold]], y[perm[:n_hold]])
        train[g] = (X[perm[n_hold:]], y[perm[n_hold:]])
    train = GroupedDataset(train)
    path, beta = [], None
    for lam in lambda_grid(train):
        beta = group_lasso(train, float(lam), init=beta,
                           tol=highdim.GROUP_LASSO_TOL)
        sq = np.concatenate([(y - X @ beta[g]) ** 2
                             for g, (X, y) in sorted(valid.items())])
        path.append((float(lam), beta, sq))
    means = [float(sq.mean()) for _, _, sq in path]
    sq = path[int(np.argmin(means))][2]
    cutoff = min(means) + float(sq.std(ddof=1) / math.sqrt(sq.size))
    pick = next(k for k, mean in enumerate(means) if mean <= cutoff)
    return path[pick][:2]


@pytest.mark.parametrize("design", ["path", "recovery"])
@pytest.mark.parametrize("seed", range(5))
def test_fit_highdim_matches_full_accuracy_path(monkeypatch, design, seed):
    """Path solves stopped at PATH_TOL * lam choose the same penalty and
    support as a path certified to GROUP_LASSO_TOL, so fit_highdim's
    tensor is bitwise the one of the full-accuracy pipeline."""
    if design == "path":
        ds, pattern = path_problem(seed)
    else:
        ds, pattern = recovery_problem(seed)[0], RECOVERY_PATTERN
    got = fit_highdim(ds, pattern, seed=seed)
    monkeypatch.setattr(highdim, "choose_lambda", reference_choose_lambda)
    ref = fit_highdim(ds, pattern, seed=seed)
    assert got.diagnostics["lambda"] == ref.diagnostics["lambda"]
    assert got.diagnostics["support"] == ref.diagnostics["support"]
    assert got.tensor.array.tobytes() == ref.tensor.array.tobytes()


def test_choose_lambda_path_solves_stop_relative_to_lambda(monkeypatch):
    """Every path solve is asked for, and meets, a KKT residual of
    PATH_TOL * lam on the training stack; fit_highdim's full-data solve
    still meets GROUP_LASSO_TOL."""
    ds, pattern = path_problem(0)
    solves, solve = [], highdim.group_lasso

    def recording_solve(data, lam, **kwargs):
        beta = solve(data, lam, **kwargs)
        solves.append((data, lam, kwargs.get("tol"), beta))
        return beta

    monkeypatch.setattr(highdim, "group_lasso", recording_solve)
    model = fit_highdim(ds, pattern)
    *path, (data, lam, tol, beta) = solves
    assert len(path) == highdim.LAMBDA_GRID_SIZE
    for stack, path_lam, path_tol, path_beta in path:
        assert path_tol == highdim.PATH_TOL * path_lam
        assert group_lasso_kkt(stack, path_beta, path_lam) <= path_tol
    assert data is ds and lam == model.diagnostics["lambda"] and tol is None
    assert group_lasso_kkt(ds, beta, lam) <= highdim.GROUP_LASSO_TOL


@pytest.mark.parametrize("seed", range(3))
def test_choose_lambda_min_rule_picks_the_lowest_holdout_loss(monkeypatch,
                                                             seed):
    """rule="min" returns the grid penalty, and its path solution, with
    the lowest mean holdout loss, recomputed here from the path's solves
    on the same split; it is never larger than the "1se" pick. An
    unknown rule raises ValueError."""
    ds, _ = path_problem(seed)
    solves, solve = [], highdim.group_lasso

    def recording_solve(data, lam, **kwargs):
        solves.append((lam, solve(data, lam, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(highdim, "group_lasso", recording_solve)
    lam, beta = choose_lambda(ds, seed=seed, rule="min")
    rng = np.random.default_rng(seed)
    valid = {}
    for g, (X, y) in sorted(ds.groups.items()):
        hold = rng.permutation(y.size)[:max(
            int(round(highdim.HOLDOUT * y.size)), 1)]
        valid[g] = (X[hold], y[hold])
    means = [np.concatenate([(y - X @ path_beta[g]) ** 2
                             for g, (X, y) in valid.items()]).mean()
             for _, path_beta in solves]
    best = int(np.argmin(means))
    assert len(solves) == highdim.LAMBDA_GRID_SIZE
    assert lam == solves[best][0] and beta is solves[best][1]
    monkeypatch.setattr(highdim, "group_lasso", solve)
    assert lam <= choose_lambda(ds, seed=seed, rule="1se")[0]
    with pytest.raises(ValueError, match="unknown selection rule"):
        choose_lambda(ds, seed=seed, rule="max")


@pytest.mark.parametrize("seed, message", [
    (1.7, "seed = 1.7: seeds must be integers"),
    (True, "seed = True: seeds must be integers"),
    (-1, "seed = -1: need seed >= 0"),
])
def test_choose_lambda_rejects_a_bad_seed_by_name(seed, message):
    """A seed is never truncated: 1.7 and True split as seed 1, and -1
    failed inside numpy with a message naming nothing."""
    ds, _ = two_group_ds(np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        choose_lambda(ds, seed=seed)


def test_choose_lambda_integral_seed_is_its_int():
    ds, _ = two_group_ds(np.random.default_rng(0))
    lam = choose_lambda(ds, seed=2)[0]
    assert choose_lambda(ds, seed=np.int64(2))[0] == lam
    assert choose_lambda(ds, seed=2.0)[0] == lam


def test_fit_highdim_restriction_matches_lowdim_fit():
    """Rows on the support agree bit-for-bit with fit_tensordg on the
    column-restricted dataset."""
    rng = np.random.default_rng(5)
    full, support, pattern = highdim_scenario(rng)
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(35, full.shape[0]))
        coef = full[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef + 0.05 * rng.normal(size=35))
    ds = GroupedDataset(groups)
    model = fit_highdim(ds, pattern, lam=0.4)
    sel = list(model.diagnostics["support"])
    sub = fit_tensordg(ds.restrict_columns(sel), pattern)
    assert np.array_equal(model.tensor.array[sel], sub.tensor.array)
    assert model.ranks == sub.ranks


def test_fit_highdim_missed_coordinate_costs_its_norm():
    """Forcing a support that misses an active coordinate
    leaves at least that slice's mass as error."""
    rng = np.random.default_rng(6)
    full, support, pattern = highdim_scenario(rng)
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(30, full.shape[0]))
        coef = full[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef)
    ds = GroupedDataset(groups)
    missed = int(support[0])
    kept = [int(j) for j in support[1:]]
    # force the wrong support by fitting on those columns directly
    sub = fit_tensordg(ds.restrict_columns(kept), pattern)
    embed = np.zeros_like(full)
    embed[kept] = sub.tensor.array
    err = np.linalg.norm(embed - full)
    assert err >= np.linalg.norm(full[missed]) - 1e-9


def test_fit_highdim_guards():
    rng = np.random.default_rng(7)
    full, support, pattern = highdim_scenario(rng)
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(30, full.shape[0]))
        coef = full[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef)
    ds = GroupedDataset(groups)
    with pytest.raises(DimensionError, match="no coordinate"):
        fit_highdim(ds, pattern, lam=1e9)
