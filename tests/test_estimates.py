"""The fits as row arrays: every stack is one gather through the group
index, equal bit for bit to the per-group loop it replaced, and a group
without a fit is named, never read from row -1. Two results round
differently from their loops and are compared by what the user sees
(fit_compare): the body tensor, which keeps the gather's strided
layout, and a mode Gram whose noise traces numpy sums pairwise."""

import re

import numpy as np
import pytest

import estimates_reference as ref
from fit_compare import assert_same_fit
from tensordg import (DimensionError, GroupedDataset, ScenarioConfig,
                      arm_blocks, build_pattern, fit_all, fit_tensordg,
                      make_scenario, mode_gram)
from tensordg.baselines import _coef_matrix
from tensordg.completion import _body_tensor
from tensordg.experiments import _Replication

CONFIGS = {
    "q2": dict(p=12, group_dims=(5, 5), ranks=(3, 2, 2), body_sizes=(3, 3),
               arm_sizes=(2, 2), n=40, n_target=2, seed=3),
    # the benchmark's fit_q3 shape at p=12: 16 and 9 tuples per mode block
    "q3": dict(q=3, p=12, group_dims=(6, 6, 6), ranks=(6, 2, 2, 2),
               body_sizes=(4, 4, 4), arm_sizes=(3, 3, 3), n=200,
               n_target=2, seed=5),
    # a one-level body mode: a (10, 1) gather of noise traces, which
    # sum(axis=0) adds pairwise, not in order (it differs at this seed)
    "one_level": dict(p=6, group_dims=(4, 12), ranks=(2, 1, 2),
                      body_sizes=(1, 10), arm_sizes=(2, 2), n=30,
                      n_target=2, seed=8),
}


def assert_same_array(new, old):
    """Equal bits and equal memory layout (a strided copy rounds
    differently in the products that read it)."""
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.strides == old.strides
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("name", CONFIGS)
def test_gathers_equal_the_per_group_loops_bitwise(name):
    sc = make_scenario(ScenarioConfig(**CONFIGS[name]), 0)
    ctx = _Replication(sc)
    est, pattern = ctx.est, sc.pattern
    # a pattern observing fewer groups than the estimates hold
    smaller = build_pattern(pattern.space, pattern.body,
                            [[s[:max(1, len(s) - 1)] for s in arm]
                             for arm in pattern.arm_subsets])
    assert smaller.observed < pattern.observed
    same_gram = assert_same_fit if name == "one_level" else assert_same_array
    for t in range(pattern.q + 1):
        for pat in (pattern, smaller):
            same_gram(mode_gram(est, pat, t), ref.mode_gram(est, pat, t))
    assert_same_array(est.coef[est.rows(pattern.observed_list())],
                      ref.unfold_blocks(est, pattern, 0)[0])
    for t, (cross, gram) in enumerate(arm_blocks(est, pattern), start=1):
        target = ref.unfold_blocks(est, pattern, t)[1]
        assert_same_array(cross, target.T @ target)
        levels = range(1, pattern.space[t - 1] + 1)
        same_gram(gram, ref.stack_block(est.tilde, pattern.arm_tuples(t),
                                        t, levels)[1])
    assert_same_fit(_body_tensor(est, pattern), ref._body_tensor(est, pattern))
    (basis, order), (ref_basis, ref_order) = (_coef_matrix(est),
                                              ref._coef_matrix(est))
    assert_same_array(basis, ref_basis)
    assert list(order) == ref_order
    assert_same_array(ctx.observed.array, ref.observed(est, sc).array)


def test_group_without_a_fit_is_named():
    """Estimates of a smaller pattern, fitted on a pattern that observes
    one more group: the group is named, not read from row -1, both by
    the fit (mode 0 meets it first) and by a mode-t block."""
    rng = np.random.default_rng(0)
    body, arms = [(1, 2), (1, 2)], [[(1,)], [(1,)]]
    small = build_pattern((3, 3), body, arms)
    est = fit_all(GroupedDataset(
        {g: (rng.normal(size=(20, 3)), rng.normal(size=20))
         for g in small.observed_list()}), small)
    wider_body = build_pattern((3, 3), [(1, 2, 3), (1, 2)], arms)
    for larger in (build_pattern((3, 3), body, arms, extra=[(3, 3)]),
                   wider_body):
        missing, = larger.observed - small.observed
        with pytest.raises(DimensionError,
                           match=re.escape(str(missing))) as err:
            fit_tensordg(est, larger)
        assert err.value.where == missing
    with pytest.raises(DimensionError) as err:
        mode_gram(est, wider_body, 2)
    assert err.value.where == (3, 2)


@pytest.mark.parametrize("group", [(0, 1), (1, 0), (9, 1), (1, 9)])
def test_group_outside_the_space_is_named(group):
    """A level of 0 does not wrap around to the last level (row 50 of
    the reference design is group (8, 1)), and a level above the space
    raises DimensionError, not a bare IndexError."""
    sc = make_scenario(ScenarioConfig(seed=3), 0)
    est = fit_all(sc.train, sc.pattern)
    assert est.index.shape == (8, 8)
    with pytest.raises(DimensionError, match=re.escape(str(group))) as err:
        est.rows([[1, 1], list(group)])
    assert err.value.where == group
