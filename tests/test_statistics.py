"""Sufficient statistics in place of rows: the harness's training draw
and ``fit_all`` on a ``GroupedStatistics``.

The draw must have the law of the statistics of drawn rows, leave the
truth, shifts and target samples of the row scenario untouched, and be
bitwise the same serially and on threads. ``fit_all`` must fit
statistics as it fits the rows they come from, and fail on the same
bad group with the same error.
"""

import math

import numpy as np
import pytest

import tensordg._threads as _threads
import tensordg.experiments as experiments
from fit_compare import assert_same_fit
from tensordg import (ConditioningError, DimensionError, GroupedDataset,
                      GroupedStatistics, NonFiniteError, ScenarioConfig,
                      fit_all, make_scenario)
from test_threads import Q3, SMALL, assert_bitwise_equal, set_cpus

DESIGNS = {"identity": {}, "ar1": {"design": "ar1", "ar1_rho": 0.6}}


def statistics_of(groups):
    """Each sample's (X'X, X'y, RSS, n), RSS from a least squares fit;
    NaN when the sample is not finite."""
    stats = {}
    for g, (X, y) in groups.items():
        X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
        rss = math.nan
        if np.isfinite(X).all() and np.isfinite(y).all():
            rss = np.sum((y - X @ np.linalg.lstsq(X, y, rcond=None)[0]) ** 2)
        stats[g] = (X.T @ X, X.T @ y, rss, len(y))
    return stats


def fiber(sc, g):
    return sc.truth.array[(slice(None),) + tuple(i - 1 for i in g)]


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_fit_of_statistics_is_the_fit_of_their_rows(design):
    sc = make_scenario(ScenarioConfig(seed=3, **DESIGNS[design]), 0)
    stats = GroupedStatistics(statistics_of(sc.train.groups))
    assert_same_fit(fit_all(stats, sc.pattern),
                    fit_all(sc.train, sc.pattern))


def few(X, y):
    return X[:5], y[:5]


def singular(X, y):
    X = np.array(X)
    X[:, 1] = X[:, 0]
    return X, y


def nan(X, y):
    X = np.array(X)
    X[3, 2] = np.nan
    return X, y


@pytest.mark.parametrize("corrupt, error", [
    (few, DimensionError), (singular, ConditioningError),
    (nan, NonFiniteError)])
def test_a_bad_group_fails_alike_on_rows_and_statistics(corrupt, error):
    """n <= p, a singular Gram and a NaN raise the same error naming the
    same group, whether the group comes as rows or as statistics."""
    sc = make_scenario(ScenarioConfig(seed=7, **SMALL), 0)
    groups = dict(sc.train.groups)
    bad = sc.pattern.observed_list()[5]
    groups[bad] = corrupt(*groups[bad])
    for build in (GroupedDataset,
                  lambda gs: GroupedStatistics(statistics_of(gs))):
        with pytest.raises(error) as err:
            fit_all(build(groups), sc.pattern)
        assert err.value.where == bad
        assert str(err.value).startswith(f"group {bad}: ")


@pytest.mark.parametrize("entry, error, message", [
    ((np.eye(3), np.ones(4), 1.0, 9), DimensionError, "statistics X'X"),
    ((np.eye(4), np.ones(4), np.ones(2), 9), DimensionError, "statistics"),
    ((np.eye(3), np.ones(3), 1.0, 9), DimensionError, "p=4"),
    ((np.eye(4), np.ones(4), 1.0, 9.5), DimensionError, "n = 9.5"),
    ((np.eye(4), np.ones(4), 1.0, 0), DimensionError, "n = 0"),
    ((np.eye(4), np.ones(4), math.inf, 9), NonFiniteError, "non-finite"),
    ((np.eye(4), np.full(4, np.nan), 1.0, 9), NonFiniteError, "non-finite"),
    ((np.eye(4), np.ones(4), -1.0, 9), DimensionError, "RSS = -1.0"),
])
def test_bad_statistics_are_named_on_construction(entry, error, message):
    with pytest.raises(error, match=message) as err:
        GroupedStatistics({(1, 1): (np.eye(4), np.ones(4), 1.0, 9),
                           (1, 2): entry})
    assert err.value.where == (1, 2)
    assert str(err.value).startswith("group (1, 2): ")


def statistics_stages(cfg):
    sc = make_scenario(cfg, 1, statistics=True)
    est = fit_all(sc.train, sc.pattern)
    return sc.train.groups, sc.targets, est.coef, est.noise_cov, \
        est.noise_trace, est.sigma2, est.n, est.pooled


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(seed=3), ScenarioConfig(seed=3, design="ar1"),
    ScenarioConfig(seed=5, **Q3)], ids=["reference", "ar1", "fit_q3"])
def test_statistics_draw_is_bitwise_serial(monkeypatch, cfg):
    """The draw and its fit are the same bits in a process set to run
    serially and on three threads."""
    monkeypatch.setattr(_threads, "_serial", True)
    serial = statistics_stages(cfg)
    monkeypatch.setattr(_threads, "_serial", False)
    set_cpus(monkeypatch, 3)
    assert _threads.thread_count(100) == 3
    assert_bitwise_equal(serial, statistics_stages(cfg))


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_statistics_leave_truth_shifts_and_targets_unchanged(design):
    cfg = ScenarioConfig(seed=11, n_target=150, delta_sparsity=3,
                         **DESIGNS[design])
    rows, stats = (make_scenario(cfg, 2, statistics=s)
                   for s in (False, True))
    assert isinstance(rows.train, GroupedDataset)
    assert isinstance(stats.train, GroupedStatistics)
    assert list(stats.train.groups) == rows.pattern.observed_list()
    assert all(entry[3] == cfg.n for entry in stats.train.groups.values())
    assert rows.truth.array.tobytes() == stats.truth.array.tobytes()
    assert_bitwise_equal((rows.targets, rows.gammas, rows.deltas),
                         (stats.targets, stats.gammas, stats.deltas))


REPS = 200
METHODS = ("tensordg", "maximin", "ols")


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def monte_carlo(request):
    """REPS replications of a small cell drawn both ways: per-method adge
    and tle, and per observed group of the statistics draw X'X/n, the
    squared coefficient error and sigma2."""
    cfg = ScenarioConfig(seed=0, **SMALL, **DESIGNS[request.param])
    scores = {kind: {m: [] for m in METHODS} for kind in (False, True)}
    grams, sq_err, sigma2 = [], [], []
    for rep in range(REPS):
        for kind in (False, True):
            ctx = experiments._Replication(make_scenario(cfg, rep, kind))
            for m in METHODS:
                scores[kind][m].append(experiments._score(
                    *experiments.METHODS[m](ctx), ctx.scenario)[1:])
        sc, est = ctx.scenario, ctx.est
        grams += [xtx / n for xtx, _, _, n in sc.train.groups.values()]
        sq_err += [np.sum((est.coef[k] - fiber(sc, g)) ** 2)
                   for k, g in enumerate(est.groups)]
        sigma2 += list(est.sigma2)
    return cfg, scores, np.array(grams), np.array(sq_err), np.array(sigma2)


def within(values, expected, k):
    """The mean of values is within k standard errors of expected."""
    se = np.std(values, ddof=1) / math.sqrt(len(values))
    return abs(np.mean(values) - expected) <= k * se


@pytest.mark.parametrize("method", METHODS)
def test_methods_score_alike_on_statistics_and_rows(monte_carlo, method):
    """Mean adge and tle agree within 3 standard errors of the paired
    difference (the truth and targets are shared, the training draws
    are independent)."""
    _, scores, *_ = monte_carlo
    diff = (np.array(scores[True][method])
            - np.array(scores[False][method]))
    for column, name in enumerate(("adge", "tle")):
        assert within(diff[:, column], 0.0, 3.0), (method, name)


def test_statistics_have_the_law_of_the_rows(monte_carlo):
    """Mean X'X/n is Sigma, E|beta_hat - beta|^2 = sigma^2 tr(Sigma^-1)
    / (n - p - 1) and E sigma2_hat = sigma^2 for Gaussian designs."""
    cfg, _, grams, sq_err, sigma2 = monte_carlo
    lags = np.abs(np.subtract.outer(np.arange(cfg.p), np.arange(cfg.p)))
    cov = cfg.ar1_rho ** lags if cfg.design == "ar1" else np.eye(cfg.p)
    var = (np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / cfg.n
    assert (np.abs(grams.mean(axis=0) - cov)
            <= 4.0 * np.sqrt(var / len(grams))).all()
    noise = cfg.noise_std ** 2
    assert within(sq_err, noise * np.trace(np.linalg.inv(cov))
                  / (cfg.n - cfg.p - 1), 4.0)
    assert within(sigma2, noise, 4.0)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_noiseless_statistics_fit_exactly(design):
    cfg = ScenarioConfig(seed=2, noise_std=0.0, **SMALL, **DESIGNS[design])
    sc = make_scenario(cfg, 0, statistics=True)
    est = fit_all(sc.train, sc.pattern)
    assert (est.sigma2 == 0.0).all()
    truth = np.array([fiber(sc, g) for g in est.groups])
    assert np.abs(est.coef - truth).max() <= 1e-10
