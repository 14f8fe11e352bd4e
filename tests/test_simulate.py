"""Scenario generation: input checks, the AR(1) design, and the one
job list's parity with the reference draw."""

import json
import pathlib

import numpy as np
import pytest

import simulate_reference
from tensordg import (DimensionError, ExperimentConfig, ScenarioConfig,
                      generate_tensor, make_scenario)
from test_threads import Q3, SMALL, assert_bitwise_equal, set_cpus

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("field, value", [
    ("arm_sizes", (9, 5)),          # an arm size above its group dim
    ("ranks", (6, 0, 3)),
    ("n", 60),                      # n <= p: no least-squares fit
    ("delta_sparsity", 61),         # more shifted coordinates than p
    ("n_target", 0),
    ("seed", -1),                   # SeedSequence rejects it at draw time
    ("ar1_rho", 1.0),               # no stationary AR(1) covariance
    ("ar1_rho", -1.5),
    ("noise_std", float("nan")),
    ("signal_scale", float("inf")),
    ("rank_margin", 1.0),           # sigma_r / sigma_1 never exceeds 1
    ("rank_margin", 1.5),
    # a count, size or seed is never truncated
    ("n", 300.5),
    ("p", 59.5),
    ("q", 2.5),
    ("n_target", float("nan")),
    ("delta_sparsity", 1.5),
    ("seed", 1.5),
    ("ranks", (6, 2.5, 3)),
    ("group_dims", (8, float("inf"))),
    ("body_sizes", (5.5, 5)),
    ("arm_sizes", (5, 4.5)),
    # a string or a bool is not a count, though float() takes both
    ("n", "300"),
    ("seed", True),
    ("q", np.bool_(True)),
    ("p", b"60"),
    ("ranks", (6, "3", 3)),
    ("group_dims", np.array(["8", "8"])),
    # a zero tensor meets no rank margin; a negative spread is no spread
    ("signal_scale", 0.0),
    ("signal_scale", -1.0),
    ("noise_std", -1.0),
    ("delta_std", -0.5),
])
def test_bad_scenario_input_fails_early(field, value):
    """Each of these would turn every replication into a failed row, so
    the config is rejected with the field named."""
    with pytest.raises(ValueError, match=f"^{field} ") as err:
        ScenarioConfig(**{field: value})
    if type(err.value) is DimensionError:
        assert err.value.where == field


def test_integral_values_become_ints():
    """An integral float is its int, in a scalar field and in a tuple."""
    cfg = ScenarioConfig(n=300.0, seed=np.int64(1), ranks=[6.0, 3, 3])
    assert cfg == ScenarioConfig(seed=1)
    assert type(cfg.n) is int and type(cfg.seed) is int
    assert cfg.ranks == (6, 3, 3) and type(cfg.ranks[0]) is int


def test_few_target_samples_stay_legal():
    """n_target below p stays legal: a fit that never regresses on the
    target sample (the fit_q3 benchmark design) draws two."""
    assert ScenarioConfig(n_target=2).n_target == 2


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


@pytest.mark.parametrize("rep, message", [
    (1.5, "rep = 1.5: replication indices must be integers"),
    (True, "rep = True: replication indices must be integers"),
    ("1", "rep = '1': replication indices must be integers"),
    (-1, "rep = -1: need rep >= 0"),
])
@pytest.mark.parametrize("draw", [make_scenario, generate_tensor])
def test_bad_replication_index_fails_early(draw, rep, message):
    """A replication index is never truncated: 1.5 and True drew rep 1,
    and -1 failed inside SeedSequence with a message naming nothing."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        draw(ScenarioConfig(), rep)


def test_integral_replication_index_is_its_int():
    cfg = ScenarioConfig(p=8, group_dims=(5, 4), ranks=(3, 2, 2),
                         body_sizes=(4, 4), arm_sizes=(2, 2), n=40,
                         n_target=5, signal_scale=4.0)
    sc = make_scenario(cfg, np.int64(2))
    assert type(sc.rep) is int and sc.rep == 2
    assert_bitwise_equal(sc.truth.array, make_scenario(cfg, 2.0).truth.array)


def parity_cells():
    """Every cell of the checked-in battery, plus an AR(1) cell with
    shifted targets, a noiseless cell, the fit_q3 design (q = 3) and a
    5 x 4 group space, whose group codes differ from the 4 x 5 one's."""
    for path in sorted(ROOT.joinpath("configs").glob("*.json")):
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
        for label, scenario in cfg.cells():
            yield pytest.param(scenario, id=f"{path.stem}{label and '-'}"
                                            f"{label}")
    yield pytest.param(ScenarioConfig(design="ar1", n_target=150,
                                      delta_sparsity=3), id="ar1")
    yield pytest.param(ScenarioConfig(noise_std=0), id="noiseless")
    yield pytest.param(ScenarioConfig(seed=5, **dict(Q3, delta_sparsity=3)),
                       id="fit_q3")
    yield pytest.param(ScenarioConfig(seed=7, **dict(SMALL, delta_sparsity=2)),
                       id="5x4")


def scenario_parts(sc):
    return (sc.config, sc.rep, sc.truth.array, sc.pattern.observed_list(),
            sc.pattern.unobserved_list(), sc.train.groups, sc.targets,
            sc.gammas, sc.deltas)


@pytest.mark.parametrize("statistics", [False, True],
                         ids=["rows", "statistics"])
@pytest.mark.parametrize("cfg", parity_cells())
def test_one_job_list_matches_the_reference_draw(monkeypatch, cfg,
                                                 statistics):
    """make_scenario draws every group in one job list; its truth,
    training data, targets, shifts and target coefficients are bitwise
    those of the reference's serial shift loop and separate data draw
    (simulate_reference). Rep 0 is drawn on three threads and rep 1
    serially, so each cell runs both ways. A rep whose truth cannot be
    drawn fails in both."""
    for rep, cpus in ((0, 3), (1, 1)):
        set_cpus(monkeypatch, cpus)
        try:
            want = scenario_parts(simulate_reference.make_scenario(
                cfg, rep, statistics))
        except RuntimeError:
            with pytest.raises(RuntimeError, match="rank margin"):
                make_scenario(cfg, rep, statistics)
            continue
        assert_bitwise_equal(want, scenario_parts(
            make_scenario(cfg, rep, statistics)))
