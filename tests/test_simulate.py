"""Scenario generation: the AR(1) design."""

import numpy as np

from tensordg import ScenarioConfig, make_scenario


def per_group_ar1_draw(cfg, stage, rep, g, n, coef):
    """One group's sample, with the AR(1) covariance and its Cholesky
    factor formed for this group alone."""
    code = 0
    for i, d in zip(g, cfg.group_dims):
        code = code * d + (i - 1)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, stage, rep, code]))
    X = rng.normal(size=(n, cfg.p))
    cov = cfg.ar1_rho ** np.abs(np.subtract.outer(np.arange(cfg.p),
                                                  np.arange(cfg.p)))
    X = X @ np.linalg.cholesky(cov).T
    return X, X @ coef + cfg.noise_std * rng.normal(size=n)


def test_ar1_scenario_matches_per_group_draws():
    cfg = ScenarioConfig(p=10, group_dims=(5, 4), ranks=(3, 2, 2),
                         body_sizes=(4, 4), arm_sizes=(2, 2), n=40,
                         n_target=30, design="ar1", ar1_rho=0.6,
                         delta_sparsity=2, seed=11)
    rep = 2
    sc = make_scenario(cfg, rep)
    assert list(sc.train.groups) == sc.pattern.observed_list()
    assert list(sc.targets) == sc.pattern.unobserved_list()
    for g, (X, y) in sc.train.groups.items():
        coef = sc.truth.array[(slice(None),) + tuple(i - 1 for i in g)]
        X0, y0 = per_group_ar1_draw(cfg, 2, rep, g, cfg.n, coef)
        assert X.tobytes() == X0.tobytes() and y.tobytes() == y0.tobytes()
    for g, (X, y) in sc.targets.items():
        X0, y0 = per_group_ar1_draw(cfg, 3, rep, g, cfg.n_target,
                                    sc.gammas[g])
        assert X.tobytes() == X0.tobytes() and y.tobytes() == y0.tobytes()
    # neighbouring features correlate at rho, features two apart at rho^2
    X = np.vstack([X for X, _ in sc.train.groups.values()])
    corr = np.corrcoef(X, rowvar=False)
    assert abs(np.mean(np.diag(corr, 1)) - 0.6) < 0.05
    assert abs(np.mean(np.diag(corr, 2)) - 0.36) < 0.05
