"""Tests for the comparison estimators."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maximin_reference import lstsq_maximin
from tensordg import (ConvergenceError, DimensionError, GroupedDataset,
                      build_pattern, fit_all, maximin, meta_lm_star, ols_fit,
                      pooled_gram, shared_subspace, spectral_step,
                      tucker_assemble)


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


def test_single_task_ols_noiseless_exact():
    """Noiseless data recovers the group coefficient."""
    rng = np.random.default_rng(1)
    beta = rng.normal(size=5)
    X = rng.normal(size=(20, 5))
    assert np.allclose(ols_fit(X, X @ beta)[0], beta, atol=1e-10)


def test_single_task_ols_risk_scale():
    """Monte-Carlo oracle for Gaussian-design OLS risk: with
    n=300, p=60, sigma=1 the expected squared error is
    p / (n - p - 1) = 0.251, so the 200-rep mean lands in [0.15, 0.35].
    """
    rng = np.random.default_rng(2)
    errs = []
    for _ in range(200):
        beta = rng.normal(size=60)
        X = rng.normal(size=(300, 60))
        y = X @ beta + rng.normal(size=300)
        coef = ols_fit(X, y)[0]
        errs.append(float(np.sum((coef - beta) ** 2)))
    assert 0.15 <= np.mean(errs) <= 0.35


def test_pooled_gram_equals_stacked_design():
    """Pooled Gram is the row-stacked X'X / N."""
    rng = np.random.default_rng(3)
    Xa, Xb = rng.normal(size=(10, 3)), rng.normal(size=(14, 3))
    ds = GroupedDataset({(1,): (Xa, rng.normal(size=10)),
                         (2,): (Xb, rng.normal(size=14))})
    stacked = np.vstack([Xa, Xb])
    assert np.allclose(pooled_gram(ds), stacked.T @ stacked / 24)


def test_maximin_degenerate_cases():
    """Identical estimates return themselves; an antipodal
    pair cancels to zero with half weights."""
    b = np.array([1.0, 2.0])
    pooled = np.eye(2)
    coef, w = maximin({(1,): b, (2,): b, (3,): b}, pooled)
    assert np.allclose(coef, b, atol=1e-8)
    assert abs(w.sum() - 1.0) <= 1e-12
    v = np.array([3.0, -1.0])
    coef, w = maximin({(1,): v, (2,): -v}, pooled)
    assert np.allclose(coef, 0.0, atol=1e-8)
    assert np.allclose(w, [0.5, 0.5], atol=1e-8)


def test_maximin_matches_grid_oracle():
    """Three groups in p=2: projected gradient matches a
    0.001-step brute-force scan of w' G w over the simplex to 1e-4."""
    rng = np.random.default_rng(4)
    coefs = {(i,): rng.normal(size=2) for i in (1, 2, 3)}
    A = rng.normal(size=(40, 2))
    pooled = A.T @ A / 40
    coef, w = maximin(coefs, pooled)
    basis = np.column_stack([coefs[g] for g in sorted(coefs)])
    gram = basis.T @ pooled @ basis

    step = 0.001
    grid = np.arange(0.0, 1.0 + step / 2, step)
    w1, w2 = np.meshgrid(grid, grid, indexing="ij")
    keep = w1 + w2 <= 1.0 + 1e-12
    W = np.column_stack([w1[keep], w2[keep], 1.0 - w1[keep] - w2[keep]])
    objs = np.einsum("ni,ij,nj->n", W, gram, W)
    assert abs(float(w @ gram @ w) - float(objs.min())) <= 1e-4
    # output stays in the convex hull of the inputs
    assert np.allclose(coef, basis @ w, atol=1e-12)
    assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12


def test_maximin_objective_non_increasing():
    """Objective values recorded along the iterates never increase."""
    rng = np.random.default_rng(5)
    coefs = {(i,): rng.normal(size=3) for i in (1, 2, 3, 4)}
    A = rng.normal(size=(50, 3))
    history = []
    maximin(coefs, A.T @ A / 50, history=history)
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12)


def test_maximin_beats_sampled_simplex_points():
    """Converged objective is no worse than random feasible
    points, a direct global-optimality spot check."""
    rng = np.random.default_rng(6)
    coefs = {(i,): rng.normal(size=4) for i in range(1, 6)}
    A = rng.normal(size=(60, 4))
    pooled = A.T @ A / 60
    _, w = maximin(coefs, pooled)
    basis = np.column_stack([coefs[g] for g in sorted(coefs)])
    gram = basis.T @ pooled @ basis
    best = float(w @ gram @ w)
    for _ in range(200):
        other = rng.dirichlet(np.ones(5))
        assert best <= float(other @ gram @ other) + 1e-6


def maximin_gram(coefs, pooled):
    basis = np.column_stack([coefs[g] for g in sorted(coefs)])
    return basis.T @ pooled @ basis


def assert_kkt_certificate(gram, w, rel=1e-10):
    """w lies on the simplex, the gradient G w is equal on the support and
    no smaller off it, to rel times the largest diagonal entry of G."""
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    grad = gram @ w
    level = float(w @ grad)
    slack = rel * float(np.diag(gram).max())
    support = w > 0.0
    assert np.max(np.abs(grad[support] - level)) <= slack
    assert np.all(grad[~support] >= level - slack)


def reference_size_instance(seed):
    """55 estimates in p=60 scattered around a common coefficient, with
    the pooled Gram of 300 Gaussian samples."""
    rng = np.random.default_rng(seed)
    common = rng.normal(size=60)
    coefs = {(g,): common + 0.8 * rng.normal(size=60) for g in range(55)}
    A = rng.normal(size=(300, 60))
    return coefs, A.T @ A / 300


def test_maximin_reference_size_kkt_certificate():
    """m=55 estimates, p=60: the solve returns a KKT point with a proper
    support, and its objective history does not increase."""
    coefs, pooled = reference_size_instance(10)
    history = []
    coef, w = maximin(coefs, pooled, history=history)
    gram = maximin_gram(coefs, pooled)
    assert_kkt_certificate(gram, w)
    assert 1 < np.count_nonzero(w) < 55
    assert np.all(np.diff(history) <= 1e-12 * history[0])
    basis = np.column_stack([coefs[g] for g in sorted(coefs)])
    assert np.array_equal(coef, basis @ w)


def test_maximin_more_estimates_than_features():
    """m=10 estimates in p=3 with the origin in their convex hull: the
    optimum is 0 and its working set has p+1 = 4 estimates, so G_PP is
    singular there. The solve still certifies optimality."""
    rng = np.random.default_rng(11)
    coefs = {(g,): rng.normal(size=3) for g in range(10)}
    A = rng.normal(size=(40, 3))
    pooled = A.T @ A / 40
    coef, w = maximin(coefs, pooled)
    gram = maximin_gram(coefs, pooled)
    assert_kkt_certificate(gram, w)
    support = w > 0.0
    assert np.linalg.matrix_rank(gram[np.ix_(support, support)]) \
        < np.count_nonzero(support)
    assert abs(float(w @ gram @ w)) <= 1e-12 * float(np.diag(gram).max())
    assert np.allclose(coef, 0.0, atol=1e-8)


def scattered_instance(seed, m, p, n_dup, n_anti):
    """m estimates in p dims scattered around a common coefficient, with
    n_dup exact duplicates and n_anti exact negations of other estimates.
    The pooled Gram is that of p + 10 Gaussian samples whose columns are
    scaled by factors from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    common = rng.normal(size=p)
    coefs = [common + rng.uniform(0.1, 2.0) * rng.normal(size=p)
             for _ in range(m)]
    for _ in range(n_dup):
        i, j = rng.choice(m, 2, replace=False)
        coefs[j] = coefs[i].copy()
    for _ in range(n_anti):
        i, j = rng.choice(m, 2, replace=False)
        coefs[j] = -coefs[i]
    scale = 10.0 ** rng.uniform(-3, 3, size=p)
    A = rng.normal(size=(p + 10, p)) * scale
    return {(g,): b for g, b in enumerate(coefs)}, A.T @ A / (p + 10)


@given(m=st.integers(2, 60), p=st.integers(2, 70),
       n_dup=st.integers(0, 3), n_anti=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
# an LU step that would raise w' G w and is redone by least squares
@example(m=23, p=5, n_dup=0, n_anti=1, seed=545757574)
def test_maximin_matches_lstsq_reference(m, p, n_dup, n_anti, seed):
    """LU steps with the least squares fallback against the solver that
    takes least squares on every step: a KKT point whose history does not
    increase beyond the rounding of w' G w, the reference's objective to
    within twice the solver slack (two KKT points of a convex problem are
    no further apart), and where G is well conditioned (kappa < 1e8) the
    reference's weights."""
    n_dup, n_anti = min(n_dup, m // 2), min(n_anti, m // 2)
    coefs, pooled = scattered_instance(seed, m, p, n_dup, n_anti)
    history = []
    _, w = maximin(coefs, pooled, history=history)
    gram = maximin_gram(coefs, pooled)
    assert_kkt_certificate(gram, w)
    slack = 1e-10 * float(np.diag(gram).max())
    assert np.all(np.diff(history) <= 1e-2 * slack)
    try:
        _, ref = lstsq_maximin(coefs, pooled)
    except ConvergenceError:
        return      # the reference cycles on some degenerate instances
    assert abs(float(w @ gram @ w) - float(ref @ gram @ ref)) <= 2 * slack
    if np.linalg.cond(gram) < 1e8:
        assert np.max(np.abs(w - ref)) <= 1e-9


def test_maximin_breaks_degenerate_cycle():
    """57 estimates in p=18 with three antipodal pairs, so the optimum is
    0 and G_PP goes singular along the way. Rounding there gives the
    joining index a negative step, which would drop it again at once;
    the reference solver repeats that until its step cap. The vertex
    step breaks the cycle and the solve certifies."""
    coefs, pooled = scattered_instance(79, 57, 18, 0, 3)
    with pytest.raises(ConvergenceError):
        lstsq_maximin(coefs, pooled)
    history = []
    _, w = maximin(coefs, pooled, history=history)
    assert_kkt_certificate(maximin_gram(coefs, pooled), w)
    assert np.all(np.diff(history) <= 0.0)


@pytest.mark.parametrize("failure", ["raise", "nan", "uphill"])
def test_maximin_falls_back_to_least_squares(monkeypatch, failure):
    """An LU step that raises, returns non-finite values or would raise
    w' G w is taken by least squares instead: the solve lands on the
    reference's weights with a non-increasing history."""
    coefs, pooled = reference_size_instance(13)
    _, ref = lstsq_maximin(coefs, pooled)
    lu = np.linalg.solve

    def broken(a, b):
        if failure == "raise":
            raise np.linalg.LinAlgError("singular matrix")
        step = lu(a, b)
        # three times too long overshoots the best point of the hull
        return step * np.nan if failure == "nan" else 3.0 * step

    monkeypatch.setattr(np.linalg, "solve", broken)
    history = []
    _, w = maximin(coefs, pooled, history=history)
    assert np.max(np.abs(w - ref)) <= 1e-9
    assert np.all(np.diff(history) <= 0.0)


def test_maximin_step_cap_raises():
    """One active-set step cannot certify a reference-size instance."""
    coefs, pooled = reference_size_instance(12)
    with pytest.raises(ConvergenceError) as info:
        maximin(coefs, pooled, max_iter=1)
    assert info.value.residual > 0.0


def test_meta_lm_star_well_specified_exact():
    """Noiseless sources and target with truth inside the
    shared subspace recover the target coefficient exactly."""
    rng = np.random.default_rng(7)
    p, space, ranks = 8, (5, 4), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=4.0)
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=40, noise=0.0)
    est = fit_all(ds, pattern)
    # target group (5, 4) is unobserved; its truth lies in the mode-0 span
    gamma = truth.array[:, 4, 3]
    X = rng.normal(size=(30, p))
    out = meta_lm_star(est, pattern, X, X @ gamma)
    assert np.allclose(out, gamma, atol=1e-8)


def test_meta_lm_star_projection_bound_and_span():
    """A target component orthogonal to the learned subspace
    cannot be recovered: error is at least that component's norm, and
    the output stays inside the span."""
    rng = np.random.default_rng(8)
    p, space, ranks = 8, (5, 4), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=4.0)
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=40, noise=0.0)
    est = fit_all(ds, pattern)

    # orthonormal basis of the noiseless mode-0 span
    from tensordg import mode_gram
    gram = mode_gram(est, pattern, 0)
    eigval, eigvec = np.linalg.eigh(gram)
    V0 = eigvec[:, ::-1][:, :3]
    inside = truth.array[:, 0, 0]
    ortho = rng.normal(size=p)
    ortho -= V0 @ (V0.T @ ortho)
    gamma = inside + ortho

    X = rng.normal(size=(40, p))
    out = meta_lm_star(est, pattern, X, X @ gamma)
    assert np.linalg.norm(out - gamma) >= np.linalg.norm(ortho) - 1e-8
    assert np.allclose(V0 @ (V0.T @ out), out, atol=1e-8)


def test_meta_lm_star_rejects_tiny_target():
    rng = np.random.default_rng(9)
    p, space, ranks = 8, (5, 4), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=4.0)
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=40, noise=0.0)
    est = fit_all(ds, pattern)
    X = np.ones((2, p))
    with pytest.raises(DimensionError):
        meta_lm_star(est, pattern, X, np.ones(2))


def test_shared_subspace_is_the_completion_mode0_basis():
    """Meta-LM* and TensorDG pick the mode-0 rank and basis by one rule."""
    rng = np.random.default_rng(12)
    truth = make_truth(rng, 8, (5, 4), (3, 2, 2), scale=3.0)
    pattern = build_pattern((5, 4), body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    est = fit_all(make_dataset(rng, truth, pattern, n=80), pattern)
    basis = shared_subspace(est, pattern)
    assert np.array_equal(basis, spectral_step(est, pattern)[0].basis)
