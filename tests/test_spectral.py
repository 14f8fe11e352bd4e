"""Rank selection: corrected Grams and the noise-floor rule."""

import numpy as np
import pytest

from tensordg import (GroupedDataset, ScenarioConfig, arm_blocks,
                      build_pattern, diagnose_generalizability, fit_all,
                      make_scenario, mode_gram, spectral_step,
                      tucker_assemble)
from tensordg.patterns import _insert
from tensordg.spectral import (FLOOR_SCALE_COEF, FLOOR_SCALE_GROUP,
                               floor_rank, mode_spectrum, tail_floor)


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


def test_floor_rank_counts_and_floor():
    """Count at or above the floor, floored at one; a single eigenvalue
    is its own floor."""
    assert floor_rank([3.0, 1.0, 0.2, 0.01, 0.0, 0.0], 2.0) == \
        (4, pytest.approx(2.0 * 0.01 / 3), False)
    assert floor_rank([3.0, 1.0, 0.2, 0.01, 0.0, 0.0], 2.0, robust=True) \
        == (4, pytest.approx(3e-8), False)
    # a tail wider than the top of the spectrum counts nothing
    rank, lam, floored = floor_rank([1.0, 0.9, -5.0, -5.0], 2.0)
    assert (rank, floored) == (1, True) and lam == pytest.approx(10.0)
    assert floor_rank([-0.5], 4.5) == (1, -0.5, False)


def test_mode_spectrum_basis_spans_leading_space():
    """Noiseless mode-0 Gram: the basis spans the population Gram's
    leading eigenvectors and eigen_gap is its smallest gap above the cut."""
    rng = np.random.default_rng(0)
    truth = make_truth(rng, 6, (4, 4), (2, 2, 2), scale=3.0)
    pattern = build_pattern((4, 4), body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    est = fit_all(make_dataset(rng, truth, pattern, n=60, noise=0.0),
                  pattern)
    stack = np.vstack([truth.array[(slice(None),) + tuple(i - 1 for i in g)]
                       for g in pattern.observed_list()])
    lam, vec = np.linalg.eigh(stack.T @ stack / len(stack))
    lam, vec = lam[::-1], vec[:, ::-1]
    spec = mode_spectrum(est, pattern, 0)
    assert spec.mode == 0 and spec.rank == 2 and not spec.floored
    assert np.allclose(spec.basis @ spec.basis.T, vec[:, :2] @ vec[:, :2].T,
                       atol=1e-8)
    assert spec.eigen_gap() == pytest.approx(min(lam[0] - lam[1], lam[1]),
                                             rel=1e-8)


def test_mode_spectrum_rejects_non_finite_gram(monkeypatch):
    rng = np.random.default_rng(1)
    truth = make_truth(rng, 5, (3, 3), (2, 2, 2))
    pattern = build_pattern((3, 3), body=[(1, 2), (1, 2)],
                            arm_subsets=[[(1,)], [(1,)]])
    est = fit_all(make_dataset(rng, truth, pattern, n=30), pattern)
    monkeypatch.setattr("tensordg.spectral.mode_gram",
                        lambda *args: np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        mode_spectrum(est, pattern, 1)


def test_noiseless_grams_match_population_blocks():
    rng = np.random.default_rng(4)
    p, space, ranks = 8, (5, 4), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=2.0)
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=60, noise=0.0)
    est = fit_all(ds, pattern)

    obs = pattern.observed_list()
    stack = np.vstack([truth.array[(slice(None),) + tuple(i - 1 for i in g)]
                       for g in obs])
    assert np.allclose(mode_gram(est, pattern, 0),
                       stack.T @ stack / len(obs), atol=1e-8)

    csets = pattern.cset_tuples(1)
    cols = []
    for lev in pattern.body[0]:
        cols.append(np.concatenate(
            [truth.array[(slice(None), lev - 1) + tuple(i - 1 for i in c)]
             for c in csets]))
    mat = np.column_stack(cols)
    assert np.allclose(mode_gram(est, pattern, 1),
                       mat.T @ mat / len(csets), atol=1e-8)


def test_noiseless_rank_recovery_with_default_threshold():
    rng = np.random.default_rng(7)
    p, space, ranks = 8, (5, 4), (3, 2, 2)
    truth = make_truth(rng, p, space, ranks, scale=8.0)
    pattern = build_pattern(space, body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=400, noise=0.0)
    est = fit_all(ds, pattern)
    spectra = spectral_step(est, pattern)
    assert tuple(s.rank for s in spectra) == ranks


def test_rank_override_bypasses_threshold():
    rng = np.random.default_rng(8)
    truth = make_truth(rng, 6, (4, 4), (2, 2, 2), scale=3.0)
    pattern = build_pattern((4, 4), body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=50, noise=0.0)
    est = fit_all(ds, pattern)
    spectra = spectral_step(est, pattern, rank_override=(4, 3, 2))
    assert [s.rank for s in spectra] == [4, 3, 2]
    assert spectra[0].basis.shape == (6, 4)
    with pytest.raises(ValueError):
        spectral_step(est, pattern, rank_override=(1, 1))


def test_bias_correction_centers_the_gram():
    """The subtracted noise term matches the actual OLS inflation.

    Monte Carlo over 500 replications of a two-group design: the mean of
    the corrected Gram should sit on the population Gram, while the raw
    stack Gram is visibly inflated on the diagonal.
    """
    rng = np.random.default_rng(9)
    p, n, reps = 6, 40, 500
    pattern = build_pattern((2,), body=[(1, 2)], arm_subsets=[[]])
    betas = {(1,): rng.normal(size=p), (2,): rng.normal(size=p)}
    target = np.column_stack([betas[(1,)], betas[(2,)]])
    pop = target.T @ target

    corrected, raw = [], []
    for _ in range(reps):
        groups = {}
        for g, coef in betas.items():
            X = rng.normal(size=(n, p))
            groups[g] = (X, X @ coef + rng.normal(size=n))
        est = fit_all(GroupedDataset(groups), pattern)
        corrected.append(mode_gram(est, pattern, 1))
        stack = np.column_stack([est.tilde[(1,)].coef, est.tilde[(2,)].coef])
        raw.append(stack.T @ stack)
    corrected = np.array(corrected)
    raw = np.array(raw)

    se = corrected.std(axis=0) / np.sqrt(reps)
    assert np.all(np.abs(corrected.mean(axis=0) - pop) < 4 * se + 1e-12)
    # raw diagonal inflation is the trace term, about p/(n-p) here
    inflation = np.diag(raw.mean(axis=0) - pop)
    assert np.all(inflation > 0.5 * p / (n - p))


def test_mode_gram_rejects_bad_mode():
    rng = np.random.default_rng(10)
    truth = make_truth(rng, 5, (3, 3), (2, 2, 2))
    pattern = build_pattern((3, 3), body=[(1, 2), (1, 2)],
                            arm_subsets=[[(1,)], [(1,)]])
    ds = make_dataset(rng, truth, pattern, n=30)
    est = fit_all(ds, pattern)
    with pytest.raises(ValueError):
        mode_gram(est, pattern, 3)


def test_tail_floor_frozen_values():
    """Hand-computed floors from small spectra.

    Bottom-half magnitudes: for six eigenvalues the tail is the last
    three; mean and median variants scale them by the multiplier; the
    relative epsilon takes over when the tail is exactly zero.
    """
    ev = [10.0, 5.0, 1.0, 0.3, 0.2, 0.1]
    assert tail_floor(ev, 2.0) == pytest.approx(2.0 * 0.2)          # mean
    assert tail_floor(ev, 2.0, robust=True) == pytest.approx(0.4)   # median
    # negative tail entries count by magnitude
    assert tail_floor([4.0, 1.0, -0.5, -0.1], 1.0) == pytest.approx(0.3)
    # exact zero tail falls back to the relative epsilon
    assert tail_floor([7.0, 2.0, 0.0, 0.0], 3.0) == pytest.approx(7e-8)
    with pytest.raises(ValueError):
        tail_floor([1.0], 2.0)
    # mode-0 default is the robust variant at its own multiplier
    assert floor_rank(ev, FLOOR_SCALE_COEF, True)[1] == pytest.approx(3.4 * 0.2)
    assert floor_rank(ev, FLOOR_SCALE_GROUP)[1] == pytest.approx(2.0 * 0.2)


def test_noise_floor_rank_noiseless_exact():
    """Noiseless spectra have exact-zero tails, so the floor
    rule recovers the true rank for every mode."""
    rng = np.random.default_rng(21)
    truth = make_truth(rng, 8, (5, 4), (3, 2, 2), scale=4.0)
    pattern = build_pattern((5, 4), body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=60, noise=0.0)
    est = fit_all(ds, pattern)
    for t, expect in ((0, 3), (1, 2), (2, 2)):
        spec = mode_spectrum(est, pattern, t)
        assert spec.rank == expect


def test_spectral_step_default_uses_noise_floor():
    """The per-mode thresholds equal the noise-floor values computed
    from the same Grams: robust at FLOOR_SCALE_COEF on mode 0, the mean
    floor at FLOOR_SCALE_GROUP elsewhere."""
    rng = np.random.default_rng(22)
    truth = make_truth(rng, 8, (5, 4), (3, 2, 2), scale=4.0)
    pattern = build_pattern((5, 4), body=[(1, 2, 3), (1, 2, 3)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    ds = make_dataset(rng, truth, pattern, n=120, noise=0.5)
    est = fit_all(ds, pattern)
    for t, spec in enumerate(spectral_step(est, pattern)):
        gram = mode_gram(est, pattern, t)
        eig = np.linalg.eigvalsh(gram)[::-1]
        expect = (floor_rank(eig, FLOOR_SCALE_COEF, True) if t == 0
                  else floor_rank(eig, FLOOR_SCALE_GROUP))
        assert (spec.rank, spec.floored) == (expect[0], expect[2])
        assert spec.threshold == pytest.approx(expect[1])


def explicit_inverse_block_gram(ds, fits, tuples, t, levels):
    """Corrected block Gram as first written: re-invert every group Gram."""
    cols, diag = [], np.zeros(len(levels))
    for j, lev in enumerate(levels):
        stack = []
        for rest in tuples:
            g = _insert(rest, t, lev)
            X, _ = ds.groups[g]
            n = X.shape[0]
            stack.append(fits[g].coef)
            diag[j] += np.trace(np.linalg.inv(X.T @ X / n)) * \
                fits[g].sigma2 / n
        cols.append(np.concatenate(stack))
    mat = np.column_stack(cols)
    gram = (mat.T @ mat - np.diag(diag)) / len(tuples)
    return (gram + gram.T) / 2.0


def explicit_inverse_mode0_gram(ds, fits, pattern):
    rows = np.vstack([fits[g].coef for g in pattern.observed_list()])
    m = len(rows)
    gram = rows.T @ rows / m
    for g in pattern.observed_list():
        X, _ = ds.groups[g]
        n = X.shape[0]
        gram -= np.linalg.inv(X.T @ X / n) * fits[g].sigma2 / n / m
    return (gram + gram.T) / 2.0


def assert_close_to_scale(new, old, rtol=1e-10):
    assert np.abs(new - old).max() <= rtol * np.abs(old).max()


@pytest.mark.parametrize("q", [2, 3])
def test_stored_noise_terms_match_explicit_inverse(q):
    if q == 2:
        cfg = ScenarioConfig(p=12, group_dims=(5, 5), ranks=(3, 2, 2),
                             body_sizes=(3, 3), arm_sizes=(2, 2), n=40,
                             n_target=2, seed=3)
    else:
        cfg = ScenarioConfig(q=3, p=10, group_dims=(4, 4, 4),
                             ranks=(3, 2, 2, 2), body_sizes=(2, 2, 2),
                             arm_sizes=(2, 2, 2), n=30, n_target=2, seed=4)
    sc = make_scenario(cfg, 0)
    ds, pattern = sc.train, sc.pattern
    est = fit_all(ds, pattern)
    fits = est.tilde

    assert_close_to_scale(mode_gram(est, pattern, 0),
                          explicit_inverse_mode0_gram(ds, fits, pattern))
    for t in range(1, q + 1):
        assert_close_to_scale(
            mode_gram(est, pattern, t),
            explicit_inverse_block_gram(ds, fits, pattern.cset_tuples(t), t,
                                        pattern.body[t - 1]))

    diag = diagnose_generalizability(arm_blocks(est, pattern), pattern)
    for t, mode in enumerate(diag["modes"], start=1):
        arms = pattern.arm_tuples(t)
        for key, levels in (("joint_eigenvalues", pattern.body[t - 1]),
                            ("arm_eigenvalues",
                             range(1, pattern.space[t - 1] + 1))):
            old = explicit_inverse_block_gram(ds, fits, arms, t, list(levels))
            assert_close_to_scale(np.array(mode[key]),
                                  np.linalg.eigvalsh(old)[::-1])


def test_rank_override_decomposes_each_gram_once(monkeypatch):
    """Overriding the ranks reuses the eigenpairs the rank rule computed:
    one symmetric eigendecomposition per mode with or without it."""
    cfg = ScenarioConfig(q=3, p=10, group_dims=(4, 4, 4), ranks=(3, 2, 2, 2),
                         body_sizes=(2, 2, 2), arm_sizes=(2, 2, 2), n=30,
                         n_target=2, seed=4)
    sc = make_scenario(cfg, 0)
    est = fit_all(sc.train, sc.pattern)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    default = spectral_step(est, sc.pattern)
    n_default = len(calls)
    override = spectral_step(est, sc.pattern, rank_override=(4, 1, 2, 1))
    assert n_default == len(calls) - n_default == sc.pattern.q + 1
    assert [s.rank for s in override] == [4, 1, 2, 1]
    for a, b in zip(default, override):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.threshold == b.threshold
        assert np.array_equal(b.basis, np.linalg.eigh(b.gram)[1][:, ::-1]
                              [:, :b.rank])
