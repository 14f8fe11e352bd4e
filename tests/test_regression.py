"""Per-group OLS fits and the dataset they read."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensordg import (ConditioningError, DimensionError, GroupedDataset,
                      GroupedStatistics, NonFiniteError, build_pattern,
                      fit_all, ols_fit, ols_fits, pooled_gram)
from test_statistics import statistics_of


def normal_equations_oracle(X, y):
    return np.linalg.inv(X.T @ X) @ X.T @ y


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, p = int(rng.integers(15, 60)), int(rng.integers(2, 10))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        coef, gram, sigma2 = ols_fit(X, y)
        assert np.allclose(coef, normal_equations_oracle(X, y), atol=1e-9)
        assert np.allclose(gram, X.T @ X / n)
        resid = y - X @ coef
        assert sigma2 == pytest.approx(resid @ resid / (n - p))


def test_noiseless_fit_recovers_exactly():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 6))
    beta = rng.normal(size=6)
    coef, _, sigma2 = ols_fit(X, X @ beta)
    assert np.allclose(coef, beta, atol=1e-10)
    assert sigma2 < 1e-20


def test_sigma2_concentrates_at_default_scale():
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(55):
        X = rng.normal(size=(300, 60))
        beta = rng.normal(size=60)
        y = X @ beta + rng.normal(size=300)
        vals.append(ols_fit(X, y)[2])
    assert 0.8 < np.mean(vals) < 1.2


def test_singular_design_raises():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    X[:, 3] = X[:, 0]
    with pytest.raises(ConditioningError):
        ols_fit(X, rng.normal(size=30))


def test_underdetermined_raises():
    rng = np.random.default_rng(4)
    with pytest.raises(DimensionError):
        ols_fit(rng.normal(size=(5, 5)), rng.normal(size=5))


def toy_dataset(seed=0, n=24, p=3):
    rng = np.random.default_rng(seed)
    pat = build_pattern((3, 2), body=[(1, 2), (1, 2)],
                        arm_subsets=[[(1,)], [(1, 2)]])
    groups = {g: (rng.normal(size=(n, p)), rng.normal(size=n))
              for g in pat.observed_list()}
    return GroupedDataset(groups), pat


def test_fit_all_fits_every_observed_group():
    ds, pat = toy_dataset()
    est = fit_all(ds, pat)
    assert est.n.mean() == 24.0
    assert set(est.tilde) == pat.observed
    assert est.index.shape == pat.space
    for at in np.ndindex(*pat.space):
        row, g = est.index[at], tuple(i + 1 for i in at)
        if g in pat.observed:
            assert est.groups[row] == g
            assert np.array_equal(est.tilde[g].coef, est.coef[row])
        else:
            assert row == -1


def test_pooled_gram_of_statistics_is_pooled_gram_of_rows_bitwise():
    """pooled_gram of the rows' statistics (X'X, X'y, y'y, n) sums their
    X'X blocks in the order it forms them from the rows, so S is the
    same bits, also with unequal group sizes and at p = 1, where a numpy
    sum over the (G, 1, 1) blocks of 11 groups would add them pairwise
    rather than in order."""
    ds, _ = toy_dataset(n=31, p=4)
    X, y = ds.groups[(2, 1)]
    ds.groups[(2, 1)] = (X[:17], y[:17])
    stats = GroupedStatistics(statistics_of(ds.groups))
    assert np.array_equal(pooled_gram(stats), pooled_gram(ds))
    rng = np.random.default_rng(3)
    pat = build_pattern((4, 4), [(1, 2, 3), (1, 2, 3)], [[(1,)], [(1,)]])
    ds = GroupedDataset({g: (rng.normal(size=(24, 1)), rng.normal(size=24))
                         for g in pat.observed_list()})
    assert len(pat.observed) == 11
    stats = GroupedStatistics(statistics_of(ds.groups))
    assert np.array_equal(pooled_gram(stats), pooled_gram(ds))


def test_fit_all_reports_missing_group():
    ds, pat = toy_dataset()
    del ds.groups[(3, 1)]
    with pytest.raises(DimensionError, match="3, 1"):
        fit_all(ds, pat)


def test_fit_all_blames_singular_group():
    ds, pat = toy_dataset()
    X, y = ds.groups[(2, 2)]
    X = np.array(X)
    X[:, 1] = X[:, 0]
    ds.groups[(2, 2)] = (X, y)
    with pytest.raises(ConditioningError) as err:
        fit_all(ds, pat)
    assert err.value.where == (2, 2)


def test_dataset_validation():
    with pytest.raises(DimensionError):
        GroupedDataset({(1,): (np.zeros((4, 2)), np.zeros(5))})
    with pytest.raises(DimensionError):
        GroupedDataset({(1,): (np.zeros((4, 2)), np.zeros(4)),
                        (2,): (np.zeros((4, 3)), np.zeros(4))})


def test_dataset_rejects_non_integral_levels():
    """A level is never truncated: (1.5, 2) does not become (1, 2) and
    replace that group's samples."""
    a = (np.ones((3, 2)), np.ones(3))
    b = (np.ones((7, 2)), np.ones(7))
    for groups, bad in (({(1, 2): a, (1.5, 2): b}, (1.5, 2)),
                        ({(2, float("nan")): a}, (2, float("nan")))):
        with pytest.raises(DimensionError, match="levels must be integers"
                           ) as err:
            GroupedDataset(groups)
        assert str(err.value).startswith(f"group {bad}")
    ds = GroupedDataset({(np.int64(1), 2.0): a, (2, 2): b})
    assert list(ds.groups) == [(1, 2), (2, 2)]
    assert all(type(i) is int for g in ds.groups for i in g)


def test_noise_cov_is_scaled_inverse_gram():
    ds, pat = toy_dataset(n=30, p=4)
    for g, fit in fit_all(ds, pat).tilde.items():
        X, _ = ds.groups[g]
        n = X.shape[0]
        want = fit.sigma2 / n * np.linalg.inv(X.T @ X / n)
        scale = np.abs(want).max()
        assert np.abs(fit.noise_cov - want).max() <= 1e-12 * scale
        assert fit.noise_trace == pytest.approx(np.trace(want), rel=1e-12)


def planted_design(rng, p, kappa):
    """Design whose Gram X'X/n has eigenvalues 1 and 1/kappa, half each,
    on a random eigenbasis (which makes kappa_1 well above kappa_2)."""
    n = 2 * p
    u = np.linalg.qr(rng.normal(size=(n, p)))[0]
    v = np.linalg.qr(rng.normal(size=(p, p)))[0]
    lam = np.where(np.arange(p) < p // 2, 1.0, 1.0 / kappa)
    return np.sqrt(n) * (u * np.sqrt(lam)) @ v.T


def eigenvalue_oracle_singular(X):
    eig = np.linalg.eigvalsh(X.T @ X / X.shape[0])
    return eig[0] <= 1e-10 * max(eig[-1], 0.0)


def test_conditioning_decision_matches_eigenvalue_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    designs = [planted_design(rng, 12, k) for k in np.logspace(4, 14, 11)]
    X = rng.normal(size=(30, 5))
    X[:, 3] = X[:, 0]
    designs.append(X)
    outcomes = []
    for X in designs:
        y = rng.normal(size=X.shape[0])
        singular = eigenvalue_oracle_singular(X)
        outcomes.append(singular)
        if singular:
            with pytest.raises(ConditioningError):
                ols_fit(X, y)
        else:
            ols_fit(X, y)
    assert outcomes[-1] and any(outcomes) and not all(outcomes)

    # kappa_2 < 1e10 <= kappa_1: no certificate, the eigenvalues decide
    X = planted_design(rng, 60, 1e9)
    gram = X.T @ X / X.shape[0]
    assert np.linalg.cond(gram, 2) < 1e10 <= np.linalg.cond(gram, 1)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(1) or eigvalsh(a))
    coef, _, _ = ols_fit(X, X @ np.ones(60))
    assert len(calls) == 1
    assert np.allclose(coef, 1.0, atol=1e-3)
    ols_fit(*toy_dataset(n=30, p=4)[0].groups[(1, 1)])
    assert len(calls) == 1


def test_fit_all_names_group_with_too_few_samples():
    ds, pat = toy_dataset()
    X, y = ds.groups[(2, 1)]
    ds.groups[(2, 1)] = (X[:3], y[:3])
    with pytest.raises(DimensionError, match=r"group \(2, 1\)") as err:
        fit_all(ds, pat)
    assert err.value.where == (2, 1)


def test_ols_fits_are_bitwise_runs_of_one():
    """Eleven pairs of unequal n fit as one run (a block of FIT_BLOCK and
    one of 3), at p = 33, factored padded to 40: every row is bitwise
    ols_fit of its pair."""
    rng = np.random.default_rng(12)
    pairs = [(rng.normal(size=(n, 33)), rng.normal(size=n))
             for n in rng.integers(34, 90, size=11)]
    coef, gram, sigma2 = ols_fits(pairs)
    for k, pair in enumerate(pairs):
        one = ols_fit(*pair)
        assert coef[k].tobytes() == one[0].tobytes()
        assert gram[k].tobytes() == one[1].tobytes()
        assert sigma2[k] == one[2]
    assert [a.shape for a in ols_fits([])] == [(0, 0), (0, 0, 0), (0,)]


@pytest.mark.parametrize("corrupt, error, message", [
    (lambda X, y: (X[:, 1:], y), DimensionError, "does not match"),
    (lambda X, y: (X[:4], y[:4]), DimensionError, "need n > p"),
    (lambda X, y: (np.column_stack([X[:, :-1], X[:, 0]]), y),
     ConditioningError, "singular"),
])
def test_ols_fits_names_the_first_bad_pair(corrupt, error, message):
    rng = np.random.default_rng(13)
    pairs = [(rng.normal(size=(30, 5)), rng.normal(size=30))
             for _ in range(4)]
    for k in (2, 3):
        pairs[k] = corrupt(*pairs[k])
    with pytest.raises(error, match=f"group c: .*{message}") as err:
        ols_fits(pairs, ["a", "b", "c", "d"])
    assert err.value.where == "c"


@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       in_design=st.booleans())
@settings(max_examples=60, deadline=None)
def test_grouped_dataset_names_non_finite_group(data, bad, in_design):
    """One NaN or inf anywhere in the groups fails construction with that
    group named, whatever q, p, n and the position of the cell."""
    q, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    keys = data.draw(st.lists(st.tuples(*[st.integers(1, 5)] * q),
                              min_size=1, max_size=5, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    groups = {}
    for g in keys:
        n = int(rng.integers(1, 6))
        groups[g] = (rng.normal(size=(n, p)), rng.normal(size=n))
    g = data.draw(st.sampled_from(keys))
    X, y = groups[g]
    i = data.draw(st.integers(0, y.size - 1))
    if in_design:
        X[i, data.draw(st.integers(0, p - 1))] = bad
    else:
        y[i] = bad
    with pytest.raises(NonFiniteError, match=re.escape(str(g))) as info:
        GroupedDataset(groups)
    assert info.value.where == g
