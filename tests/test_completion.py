"""Completion: block stacking, transport solves, end-to-end exactness."""

import re

import numpy as np
import pytest

import estimates_reference as ref
import tensordg.completion
import tensordg.spectral
from fit_compare import assert_close
from tensordg import (ConditioningError, DimensionError, GroupedDataset,
                      NonFiniteError, ScenarioConfig, arm_blocks,
                      build_pattern, diagnose_generalizability,
                      estimate_loading, fit_all, fit_tensordg, load_model,
                      make_scenario, save_model, tucker_assemble)


def make_truth(rng, p, space, ranks, scale=1.0):
    core = rng.normal(size=ranks) * scale
    factors = [np.linalg.qr(rng.normal(size=(d, r)))[0].T
               for d, r in zip((p,) + space, ranks)]
    return tucker_assemble(core, factors)


def make_dataset(rng, truth, pattern, n, noise=0.0):
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(n, truth.dims[0]))
        coef = truth.array[(slice(None),) + tuple(i - 1 for i in g)]
        y = X @ coef + (noise * rng.normal(size=n) if noise else 0.0)
        groups[g] = (X, y)
    return GroupedDataset(groups)


def standard_instance(seed=7, noise=0.0, n=400):
    rng = np.random.default_rng(seed)
    p, space, ranks = 8, (5, 4), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=8.0)
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=n, noise=noise)
    return truth, pattern, ds, ranks


def fiber(tensor, g):
    return tensor.array[(slice(None),) + tuple(i - 1 for i in g)]


def scenario(q):
    """A noisy q=2 or q=3 scenario: training data and pattern."""
    if q == 2:
        cfg = ScenarioConfig(p=12, group_dims=(5, 5), ranks=(3, 2, 2),
                             body_sizes=(3, 3), arm_sizes=(2, 2), n=40,
                             n_target=2, seed=3)
    else:
        cfg = ScenarioConfig(q=3, p=10, group_dims=(4, 4, 4),
                             ranks=(3, 2, 2, 2), body_sizes=(2, 2, 2),
                             arm_sizes=(2, 2, 2), n=30, n_target=2, seed=4)
    sc = make_scenario(cfg, 0)
    return sc.train, sc.pattern


def body_index(pattern, t):
    """0-based body levels of mode t; every row of C for mode 0."""
    return slice(None) if t == 0 else np.asarray(pattern.body[t - 1]) - 1


def test_arm_block_shapes_and_content():
    truth, pattern, ds, _ = standard_instance()
    est = fit_all(ds, pattern)
    p = ds.p

    # mode 0 transports the observed stack onto itself: one gather
    stack = est.coef[est.rows(pattern.observed_list())]
    obs = pattern.observed_list()
    assert stack.shape == (len(obs), p)
    for i, g in enumerate(obs):
        assert np.allclose(stack[i], fiber(truth, g), atol=1e-8)

    # column j of the arm block stacks the arm-tuple coefficients at
    # level j; rows run through arm tuples in sorted order. C_1 is that
    # block's cross-product.
    cross, _ = arm_blocks(est, pattern)[0]
    _, target = ref.unfold_blocks(est, pattern, 1)
    arms = pattern.arm_tuples(1)
    assert target.shape == (len(arms) * p, pattern.space[0])
    assert cross.shape == (pattern.space[0],) * 2
    for lev in range(1, pattern.space[0] + 1):
        for a, rest in enumerate(arms):
            g = (lev,) + rest
            assert np.allclose(target[a * p:(a + 1) * p, lev - 1],
                               fiber(truth, g), atol=1e-8)
    true_block = np.vstack([np.column_stack(
        [fiber(truth, (lev,) + rest)
         for lev in range(1, pattern.space[0] + 1)]) for rest in arms])
    assert_close(cross, true_block.T @ true_block)

    # the joint block is the arm block's body-level columns, so the joint
    # cross-product is C_t's body-level rows and columns
    for ds, pattern in (scenario(2), scenario(3)):
        est = fit_all(ds, pattern)
        p = ds.p
        blocks = arm_blocks(est, pattern)
        assert len(blocks) == pattern.q
        for t, (cross, gram) in enumerate(blocks, start=1):
            joint, target = ref.unfold_blocks(est, pattern, t)
            arms, body = pattern.arm_tuples(t), pattern.body[t - 1]
            levels = range(1, pattern.space[t - 1] + 1)
            assert joint.shape == (len(arms) * p, len(body))
            assert np.array_equal(joint, target[:, np.asarray(body) - 1])
            for a, rest in enumerate(arms):
                for lev in levels:
                    g = rest[:t - 1] + (lev,) + rest[t - 1:]
                    assert np.array_equal(
                        target[a * p:(a + 1) * p, lev - 1],
                        est.tilde[g].coef)
            assert np.array_equal(cross, target.T @ target)
            assert np.array_equal(
                gram, ref.stack_block(est.tilde, arms, t, levels)[1])
            b = body_index(pattern, t)
            assert_close(cross[b][:, b], joint.T @ joint)


def test_one_fit_stacks_each_block_once(monkeypatch):
    """A fit stacks q spectral blocks and q arm blocks: the transport
    solves and the diagnostic share each arm block's cross-product."""
    calls = []
    stack_block = tensordg.spectral.stack_block

    def counted(*args):
        calls.append(args[2])
        return stack_block(*args)

    for module in (tensordg.spectral, tensordg.completion):
        monkeypatch.setattr(module, "stack_block", counted, raising=False)
    for q in (2, 3):
        ds, pattern = scenario(q)
        calls.clear()
        fit_tensordg(ds, pattern)
        assert len(calls) == 2 * q
        assert sorted(calls) == sorted(2 * list(range(1, q + 1)))


def test_estimate_loading_matches_pinv_transport():
    """On noiseless blocks the fitted loading reproduces the least-norm
    transport: B_joint @ (basis @ loading) == B_target. For mode 0 the
    joint and target blocks are both the observed stack S, so the
    transport is the projection pinv(S) S onto its row space."""
    truth, pattern, ds, ranks = standard_instance()
    est = fit_all(ds, pattern)
    stack = est.coef[est.rows(pattern.observed_list())]
    crosses = [stack.T @ stack] + [c for c, _ in arm_blocks(est, pattern)]
    for t in (0, 1, 2):
        bt, btar = ref.unfold_blocks(est, pattern, t)
        body = body_index(pattern, t)
        cross = crosses[t]
        eigval, eigvec = np.linalg.eigh(cross[body][:, body])
        basis = eigvec[:, ::-1][:, :ranks[t]]
        loading, cond = estimate_loading(t, cross, body, basis)
        width = ds.p if t == 0 else pattern.space[t - 1]
        assert loading.shape == (ranks[t], width)
        assert np.isfinite(cond)
        assert np.allclose(bt @ (basis @ loading), btar, atol=1e-7)
        oracle = np.linalg.pinv(bt, rcond=1e-10) @ btar
        assert np.allclose(basis @ loading, oracle, atol=1e-7)


def test_estimate_loading_flags_degenerate_basis():
    # rank-one block, two-direction basis: the second basis direction is
    # orthogonal to the row space, so the inner system has one strong and
    # one vanishing singular value
    rng = np.random.default_rng(1)
    col = rng.normal(size=(12, 1))
    w = rng.normal(size=3)
    b = col @ w[None, :]
    good = w / np.linalg.norm(w)
    null = np.array([w[1], -w[0], 0.0])
    null = null / np.linalg.norm(null)
    null -= good * (good @ null)
    basis = np.column_stack([good, null / np.linalg.norm(null)])
    with pytest.raises(ConditioningError) as err:
        estimate_loading(1, b.T @ b, slice(None), basis)
    assert err.value.where == 1


def test_noiseless_fit_is_exact_with_default_selection():
    truth, pattern, ds, ranks = standard_instance()
    model = fit_tensordg(ds, pattern)
    assert model.ranks == ranks
    rel = np.linalg.norm(model.tensor.array - truth.array) \
        / np.linalg.norm(truth.array)
    assert rel < 1e-8
    for g in pattern.unobserved_list():
        assert np.allclose(model.coefficient(g), fiber(truth, g), atol=1e-7)


def test_one_level_body_mode_fits_at_rank_one():
    """A body with one level on a mode gives that mode a 1x1 Gram; the
    noise-floor rule counts it as rank one and the fit completes."""
    rng = np.random.default_rng(3)
    truth = make_truth(rng, 6, (3, 3), (2, 1, 2), scale=4.0)
    pattern = build_pattern((3, 3), body=[(1,), (1, 2)],
                            arm_subsets=[[(1,)], [(1,)]])
    model = fit_tensordg(make_dataset(rng, truth, pattern, n=60, noise=0.5),
                         pattern)
    assert model.ranks[1] == 1
    assert model.diagnostics["spectral"][1]["eigenvalues"] == \
        [model.diagnostics["spectral"][1]["threshold"]]
    assert np.all(np.isfinite(model.tensor.array))


def test_fit_respects_rank_override():
    truth, pattern, ds, ranks = standard_instance()
    model = fit_tensordg(ds, pattern, rank_override=ranks)
    rel = np.linalg.norm(model.tensor.array - truth.array) \
        / np.linalg.norm(truth.array)
    assert rel < 1e-10


def test_rank_override_is_never_truncated():
    """A rank of 2.5 raises naming its mode; it does not fit rank 2."""
    truth, pattern, ds, ranks = standard_instance()
    bad = (ranks[0], 2.5) + tuple(ranks[2:])
    with pytest.raises(DimensionError, match=r"^mode 1 rank 2\.5: ranks "
                                             r"must be integers") as err:
        fit_tensordg(ds, pattern, rank_override=bad)
    assert err.value.where == 1
    model = fit_tensordg(ds, pattern, rank_override=[float(r) for r in ranks])
    assert model.ranks == tuple(ranks)


def test_model_tensor_equals_core_times_loadings():
    _, pattern, ds, _ = standard_instance(noise=1.0, n=80)
    model = fit_tensordg(ds, pattern)
    rebuilt = tucker_assemble(model.core, model.loadings)
    assert np.array_equal(rebuilt.array, model.tensor.array)


def assert_same_fit(a, b):
    assert a.ranks == b.ranks
    assert np.array_equal(a.tensor.array, b.tensor.array)
    assert np.array_equal(a.core.array, b.core.array)
    for x, y in zip(a.bases + a.loadings, b.bases + b.loadings):
        assert np.array_equal(x, y)
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("q", [2, 3])
def test_fit_from_estimates_equals_fit_from_dataset(q):
    """Estimates fitted beforehand give the same model as the dataset."""
    ds, pattern = scenario(q)
    est = fit_all(ds, pattern)
    assert_same_fit(fit_tensordg(est, pattern), fit_tensordg(ds, pattern))


def test_level_relabelling_equivariance():
    """Permuting the mode-1 levels of pattern and data permutes the fit."""
    truth, pattern, ds, _ = standard_instance()
    perm = {1: 4, 2: 2, 3: 5, 4: 1, 5: 3}   # relabelling of mode-1 levels
    inv = {v: k for k, v in perm.items()}

    body = [sorted(perm[i] for i in pattern.body[0]), pattern.body[1]]
    arms = [[pattern.arm_subsets[0][0]],
            [sorted(perm[i] for i in pattern.arm_subsets[1][0])]]
    pat2 = build_pattern(pattern.space, body, arms)
    ds2 = GroupedDataset({(perm[g[0]], g[1]): xy
                          for g, xy in ds.groups.items()})

    m1 = fit_tensordg(ds, pattern)
    m2 = fit_tensordg(ds2, pat2)
    for g2 in pat2.unobserved_list():
        g1 = (inv[g2[0]], g2[1])
        assert np.allclose(m2.coefficient(g2), m1.coefficient(g1), atol=1e-7)


def test_predict_and_coefficient_validation():
    _, pattern, ds, _ = standard_instance()
    model = fit_tensordg(ds, pattern)
    x = np.ones(ds.p)
    g = (4, 4)
    assert model.predict(g, x) == pytest.approx(model.coefficient(g).sum())
    with pytest.raises(DimensionError):
        model.coefficient((1, 2, 3))
    with pytest.raises(DimensionError):
        model.coefficient((9, 1))
    with pytest.raises(DimensionError, match=re.escape("group (1.9, 2)")):
        model.coefficient((1.9, 2))
    assert np.array_equal(model.coefficient((1.0, 2)),
                          model.coefficient((1, 2)))
    with pytest.raises(DimensionError):
        model.predict(g, np.ones(3))


def test_diagnose_consistent_on_conforming_instance():
    _, pattern, ds, _ = standard_instance()
    est = fit_all(ds, pattern)
    report = diagnose_generalizability(arm_blocks(est, pattern), pattern)
    assert report["consistent"]
    assert [m["mode"] for m in report["modes"]] == [1, 2]


def test_diagnose_flags_rank_raising_arm():
    """An arm fiber pushed outside the body span must trip the check."""
    rng = np.random.default_rng(21)
    p, space, ranks = 8, (6, 6), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=6.0)
    pattern = build_pattern(space, body=[(1, 2, 3, 4), (1, 2, 3, 4)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    arr = np.array(truth.array)
    # bump the arm-only fibers at mode-1 level 6 (outside the body) by a
    # generic direction: the mode-1 arm block gains a rank, the joint
    # block does not see level 6 and keeps rank 2
    bump = rng.normal(size=(p, 2))
    arr[:, 5, 0] += bump[:, 0] * 4.0
    arr[:, 5, 1] += bump[:, 1] * 4.0
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(60, p))
        coef = arr[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef)
    est = fit_all(GroupedDataset(groups), pattern)
    report = diagnose_generalizability(arm_blocks(est, pattern), pattern)
    assert not report["consistent"]
    bad = [m for m in report["modes"] if m["mode"] == 1][0]
    assert bad["arm_rank"] > bad["joint_rank"]


def test_model_roundtrip(tmp_path):
    _, pattern, ds, _ = standard_instance(noise=0.8, n=100)
    model = fit_tensordg(ds, pattern)
    path = tmp_path / "model.tns"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.tensor.array, model.tensor.array)
    assert back.ranks == model.ranks
    assert back.pattern == model.pattern
    for a, b in zip(back.loadings, model.loadings):
        assert np.allclose(a, b)
    assert back.diagnostics["spectral"][0]["rank"] == model.ranks[0]
    g = pattern.unobserved_list()[0]
    assert np.allclose(back.coefficient(g), model.coefficient(g))


def test_fit_rejects_non_finite_group_data():
    """A NaN in one group's design fails at the dataset boundary with the
    group named, not as a bare LinAlgError deep inside the fit."""
    truth, pattern, ds, _ = standard_instance()
    groups = {g: (X.copy(), y) for g, (X, y) in ds.groups.items()}
    bad = pattern.observed_list()[3]
    groups[bad][0][5, 1] = np.nan
    with pytest.raises(NonFiniteError, match=re.escape(str(bad))) as info:
        fit_tensordg(GroupedDataset(groups), pattern)
    assert info.value.where == bad


def test_fit_runs_without_explicit_inverse(monkeypatch):
    _, pattern, ds, ranks = standard_instance(noise=0.5)

    def no_inverse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    model = fit_tensordg(ds, pattern)
    assert model.ranks == ranks
