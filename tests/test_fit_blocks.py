"""Per-group fits solved in blocks: bitwise the one-solve-per-group
reference, errors in ``observed_list`` order, one solve per block on
even thread shares."""

import re
import threading
from collections import Counter

import numpy as np
import pytest

import regression_reference as ref
from tensordg import (ConditioningError, DimensionError, ScenarioConfig,
                      build_pattern, fit_all, make_scenario, ols_fit)
from tensordg.regression import FIT_BLOCK, GroupedDataset
from test_threads import Q3, SMALL, set_cpus

FIELDS = ("coef", "noise_cov", "noise_trace", "sigma2", "n", "index",
          "pooled")


@pytest.fixture(scope="module")
def designs():
    """The reference design, the benchmark's fit_q3 design (118 groups,
    two thread shares of 59, neither a multiple of FIT_BLOCK), and the
    reference design with unequal n per group."""
    reference = make_scenario(ScenarioConfig(seed=3), 1)
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
            "unequal_n": (unequal, reference.pattern)}


def assert_bitwise_reference(ds, pattern):
    new, old = fit_all(ds, pattern), ref.fit_all(ds, pattern)
    assert new.groups == old.groups
    for name in FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for g in pattern.observed_list():
        for a, b in zip(ols_fit(*ds.groups[g]), ref.ols_fit(*ds.groups[g])):
            assert type(a) is type(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", ["reference", "fit_q3", "unequal_n"])
def test_block_fits_equal_the_per_group_reference_bitwise(
        monkeypatch, designs, name, cpus):
    set_cpus(monkeypatch, cpus)
    assert_bitwise_reference(*designs[name])


def test_fewer_groups_than_threads_bitwise(monkeypatch):
    rng = np.random.default_rng(2)
    pattern = build_pattern((3, 2), body=[(1, 2), (1, 2)],
                            arm_subsets=[[(1,)], [(1, 2)]])
    ds = GroupedDataset({g: (rng.normal(size=(20, 6)), rng.normal(size=20))
                         for g in pattern.observed_list()})
    assert len(ds.groups) < 8
    set_cpus(monkeypatch, 8)
    assert_bitwise_reference(ds, pattern)


def small_scenario():
    sc = make_scenario(ScenarioConfig(seed=7, **SMALL), 0)
    assert len(sc.pattern.observed_list()) > FIT_BLOCK
    return sc


def too_few(X, y):
    return X[:3], y[:3]


def near_singular(X, y):
    """Numerically singular: the solve succeeds, the certificate fails
    and the eigenvalues decide."""
    X = np.array(X)
    X[:, 1] = X[:, 0] + 1e-9 * X[:, 2]
    return X, y


def exactly_singular(X, y):
    """A zero column: LAPACK meets an exactly zero pivot and the batched
    solve raises LinAlgError for the whole block."""
    X = np.array(X)
    X[:, 3] = 0.0
    return X, y


def fit_with(sc, bad):
    """fit_all with the groups at observed positions ``bad`` (a dict
    position -> corruption) replaced; returns the error and the shapes
    of the solves that raised LinAlgError."""
    observed = sc.pattern.observed_list()
    groups = dict(sc.train.groups)
    for i, corrupt in bad.items():
        groups[observed[i]] = corrupt(*groups[observed[i]])
    raised = []
    solve = np.linalg.solve

    def recorded(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorded)
        with pytest.raises((ConditioningError, DimensionError)) as err:
            fit_all(GroupedDataset(groups), sc.pattern)
    return err.value, raised


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
    """The batched solve raises for the block; the block is re-fitted one
    group at a time, which names the first failing group, whether that is
    the exactly singular one or a numerically singular one ahead of it."""
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
    """fit_q3's 118 groups: each thread solves an even share of them in
    blocks of at most FIT_BLOCK, one np.linalg.solve call per block (the
    per-group fits made 118 calls)."""
    set_cpus(monkeypatch, cpus)
    ds, pattern = designs["fit_q3"]
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append((threading.current_thread(), len(a)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    fit_all(ds, pattern)
    G = len(pattern.observed_list())
    shares = [G // cpus + (i < G % cpus) for i in range(cpus)]
    assert len(calls) == sum(-(-s // FIT_BLOCK) for s in shares)
    assert max(k for _, k in calls) == FIT_BLOCK
    per_thread = Counter()
    for thread, k in calls:
        per_thread[thread] += k
    assert sorted(per_thread.values(), reverse=True) == shares
