"""Per-group fits from Cholesky factors in blocks: bitwise runs of one,
what the user sees of the LU reference, errors in ``observed_list``
order, one factorization per block on even thread shares."""

import re
import threading
from collections import Counter

import numpy as np
import pytest

import regression_reference as ref
from fit_compare import assert_same_fit
from tensordg import (ConditioningError, DimensionError, ScenarioConfig,
                      build_pattern, fit_all, make_scenario, ols_fit)
from tensordg.regression import (FIT_BLOCK, GroupedDataset, _empty_fits,
                                 _fit_rows, _invert_lower, _leaves)
from test_threads import Q3, SMALL, set_cpus


@pytest.fixture(scope="module")
def designs():
    """The reference design, the benchmark's fit_q3 design (118 groups,
    two thread shares of 59, neither a multiple of FIT_BLOCK), the
    reference design with unequal n per group, and one at p = 33, whose
    Grams are factored padded to 40 columns."""
    reference = make_scenario(ScenarioConfig(seed=3), 1)
    padded = make_scenario(ScenarioConfig(seed=4, p=33, n=60), 1)
    q3 = make_scenario(ScenarioConfig(seed=5, **Q3), 1)
    groups = dict(reference.train.groups)
    p = reference.train.p
    for i, g in enumerate(reference.pattern.observed_list()):
        if i % 3:
            X, y = groups[g]
            keep = p + 1 + 37 * i % (len(y) - p)
            groups[g] = (X[:keep], y[:keep])
    unequal = GroupedDataset(groups)
    assert len(set(unequal.groups[g][1].size for g in groups)) > 10
    return {"reference": (reference.train, reference.pattern),
            "fit_q3": (q3.train, q3.pattern),
            "unequal_n": (unequal, reference.pattern),
            "padded": (padded.train, padded.pattern)}


def assert_same_as_reference(ds, pattern):
    """fit_all and ols_fit show the user what the one-LU-solve-per-group
    reference does (fit_compare): the Cholesky fits differ from it in
    the last bits only."""
    assert_same_fit(fit_all(ds, pattern), ref.fit_all(ds, pattern))
    for g in pattern.observed_list():
        assert_same_fit(ols_fit(*ds.groups[g]), ref.ols_fit(*ds.groups[g]),
                        f"ols_fit{g}")


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", ["reference", "fit_q3", "unequal_n"])
def test_block_fits_equal_the_per_group_reference_bitwise(
        monkeypatch, designs, name, cpus):
    set_cpus(monkeypatch, cpus)
    assert_same_as_reference(*designs[name])


def test_fewer_groups_than_threads_bitwise(monkeypatch):
    rng = np.random.default_rng(2)
    pattern = build_pattern((3, 2), body=[(1, 2), (1, 2)],
                            arm_subsets=[[(1,)], [(1, 2)]])
    ds = GroupedDataset({g: (rng.normal(size=(20, 6)), rng.normal(size=20))
                         for g in pattern.observed_list()})
    assert len(ds.groups) < 8
    set_cpus(monkeypatch, 8)
    assert_same_as_reference(ds, pattern)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", ["reference", "fit_q3", "unequal_n",
                                  "padded"])
def test_block_fits_equal_runs_of_one_bitwise(monkeypatch, designs, name,
                                              cpus):
    """Every fit is bitwise that of a run of one group, whatever the
    block it was factored in and the thread that fitted it."""
    set_cpus(monkeypatch, cpus)
    ds, pattern = designs[name]
    est = fit_all(ds, pattern)
    for row, g in enumerate(pattern.observed_list()):
        coef, sigma2, n, noise_trace, xtx, noise_cov = out = _empty_fits(
            1, ds.p)
        _fit_rows([ds.groups[g]], out, [g])
        for got, want in ((est.coef[row], coef[0]),
                          (est.sigma2[row], sigma2[0]), (est.n[row], n[0]),
                          (est.noise_trace[row], noise_trace[0]),
                          (est.noise_cov[row], noise_cov[0])):
            assert got.tobytes() == want.tobytes(), g
        assert ols_fit(*ds.groups[g])[0].tobytes() == coef[0].tobytes()


@pytest.mark.parametrize("p", [1, 6, 16, 17, 33, 60, 80, 100, 150])
def test_inverse_factor_by_block_recursion(p):
    """The recursion inverts a Cholesky factor to rounding, exactly lower
    triangular, also where p is padded to a leaf width times a power of
    two (all but 1, 6, 16 and 80)."""
    rng = np.random.default_rng(p)
    X = rng.normal(size=(3, 2 * p + 5, p))
    L = np.linalg.cholesky(X.swapaxes(1, 2) @ X / X.shape[1])
    width, levels = _leaves(p)
    eye = np.eye(width << levels)
    padded = np.array([eye] * 3)
    padded[:, :p, :p] = L
    _invert_lower(padded, width, levels)
    assert all(np.array_equal(rows, eye[p:]) for rows in padded[:, p:])
    inv = padded[:, :p, :p]
    assert np.array_equal(inv, np.tril(inv))
    want = np.linalg.inv(L)
    assert np.abs(inv - want).max() <= 1e-12 * np.abs(want).max()


def small_scenario():
    sc = make_scenario(ScenarioConfig(seed=7, **SMALL), 0)
    assert len(sc.pattern.observed_list()) > FIT_BLOCK
    return sc


def too_few(X, y):
    return X[:3], y[:3]


def near_singular(X, y):
    """Numerically singular (eigenvalue ratio about 1e-13): the
    factorization succeeds, the certificate fails and the eigenvalues
    decide."""
    X = np.array(X)
    X[:, 1] = X[:, 0] + 1e-6 * np.random.default_rng(0).normal(size=len(y))
    return X, y


def exactly_singular(X, y):
    """A zero column: LAPACK meets an exactly zero pivot and the batched
    factorization raises LinAlgError for the whole block."""
    X = np.array(X)
    X[:, 3] = 0.0
    return X, y


def fit_with(sc, bad):
    """fit_all with the groups at observed positions ``bad`` (a dict
    position -> corruption) replaced; returns the error and the shapes
    of the factorizations that raised LinAlgError."""
    observed = sc.pattern.observed_list()
    groups = dict(sc.train.groups)
    for i, corrupt in bad.items():
        groups[observed[i]] = corrupt(*groups[observed[i]])
    raised = []
    cholesky = np.linalg.cholesky

    def recorded(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", recorded)
        with pytest.raises((ConditioningError, DimensionError)) as err:
            fit_all(GroupedDataset(groups), sc.pattern)
    return err.value, raised


@pytest.mark.parametrize("corrupt", [None, near_singular,
                                     exactly_singular])
def test_padded_factor_decides_like_the_reference(corrupt):
    """At p = 33 the Gram is factored padded to 40 columns: the fit is
    the LU reference's to fit_compare's tolerance, and a singular design
    raises ConditioningError there as in the reference."""
    rng = np.random.default_rng(33)
    X, y = rng.normal(size=(80, 33)), rng.normal(size=80)
    if corrupt is None:
        assert_same_fit(ols_fit(X, y), ref.ols_fit(X, y))
        return
    X, y = corrupt(X, y)
    for fit in (ols_fit, ref.ols_fit):
        with pytest.raises(ConditioningError):
            fit(X, y)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("first, second", [(near_singular, too_few),
                                           (too_few, near_singular)])
def test_first_failing_group_in_a_block_is_named(monkeypatch, cpus, first,
                                                 second):
    """Two bad groups in the first block: the earlier one is named, so
    the n <= p check does not run over the block ahead of the solve."""
    set_cpus(monkeypatch, cpus)
    sc = small_scenario()
    err, _ = fit_with(sc, {2: first, 5: second})
    g = sc.pattern.observed_list()[2]
    assert type(err) is (DimensionError if first is too_few
                         else ConditioningError)
    assert err.where == g
    assert re.match(re.escape(f"group {g}: "), str(err))


@pytest.mark.parametrize("ahead", [None, near_singular])
def test_exactly_singular_group_mid_block_is_refitted_alone(monkeypatch,
                                                            ahead):
    """The batched factorization raises for the block; the block is
    re-fitted one group at a time, which names the first failing group,
    whether that is the exactly singular one or a numerically singular
    one ahead of it."""
    set_cpus(monkeypatch, 1)
    sc = small_scenario()
    bad = {4: exactly_singular, 7: near_singular}
    if ahead is not None:
        bad[1] = ahead
    err, raised = fit_with(sc, bad)
    p = SMALL["p"]
    if ahead is None:       # the block, then the singular group alone
        assert raised == [(FIT_BLOCK, p, p), (1, p, p)]
        assert err.where == sc.pattern.observed_list()[4]
    else:                   # the group ahead fails its eigenvalue check
        assert raised == [(FIT_BLOCK, p, p)]
        assert err.where == sc.pattern.observed_list()[1]
    assert type(err) is ConditioningError


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_one_solve_per_block_on_even_thread_shares(monkeypatch, designs,
                                                   cpus):
    """fit_q3's 118 groups: each thread fits an even share of them in
    blocks of at most FIT_BLOCK, one np.linalg.cholesky call per block
    (the per-group fits made 118 calls), and no np.linalg.solve."""
    set_cpus(monkeypatch, cpus)
    ds, pattern = designs["fit_q3"]
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append((threading.current_thread(), len(a)))
        return cholesky(a)

    def no_solve(*args):
        raise AssertionError("np.linalg.solve was called")

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    fit_all(ds, pattern)
    G = len(pattern.observed_list())
    shares = [G // cpus + (i < G % cpus) for i in range(cpus)]
    assert len(calls) == sum(-(-s // FIT_BLOCK) for s in shares)
    assert max(k for _, k in calls) == FIT_BLOCK
    per_thread = Counter()
    for thread, k in calls:
        per_thread[thread] += k
    assert sorted(per_thread.values(), reverse=True) == shares
