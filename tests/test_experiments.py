"""Experiment harness: config handling, scoring, determinism, CSV output."""

import csv
import json
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import tensordg.baselines as baselines
import tensordg.completion as completion
import tensordg.experiments as experiments
import tensordg.spectral as spectral
from tensordg import (CSV_HEADER, DenseTensor, DimensionError,
                      ExperimentConfig, MetricsRecord, ScenarioConfig, adge,
                      al2e, fit_all, make_scenario, meta_lm_star, ols_fit,
                      projected_fits, run_experiment, summarize, tle,
                      write_metrics_csv)

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Small, well-conditioned design so a replication costs milliseconds.
SMALL = {"p": 8, "group_dims": (5, 4), "ranks": (3, 2, 2),
         "body_sizes": (4, 4), "arm_sizes": (2, 2), "n": 40, "n_target": 60,
         "signal_scale": 4.0}


def small_cfg(**kwargs):
    base = dict(name="unit", sweep="default", methods=("tensordg", "ols"),
                replications=2, seed=7, scenario=dict(SMALL))
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_config_validation():
    cfg = small_cfg()
    assert cfg.methods == ("tensordg", "ols")
    assert cfg.values == ()
    with pytest.raises(ValueError, match="unknown sweep"):
        small_cfg(sweep="noise", values=(1.0,))
    # the seed belongs to the experiment
    with pytest.raises(ValueError, match="unknown sweep 'seed'"):
        small_cfg(sweep="seed", values=(1, 2))
    with pytest.raises(ValueError, match="scenario sets 'seed'"):
        small_cfg(scenario=dict(SMALL, seed=3))
    with pytest.raises(ValueError, match="needs values"):
        small_cfg(sweep="ranks")
    with pytest.raises(ValueError, match="unknown methods"):
        small_cfg(methods=("tensordg", "ridge"))
    with pytest.raises(ValueError, match="empty"):
        small_cfg(methods=())
    with pytest.raises(ValueError, match="positive"):
        small_cfg(replications=0)
    with pytest.raises(ValueError, match="positive"):
        small_cfg(workers=0)
    # never truncated: 2.5 replications would run 2
    for field, value in (("replications", 2.5), ("workers", 1.5),
                         ("seed", 0.5)):
        with pytest.raises(ValueError, match=f"^{field} = {value}: ") as err:
            small_cfg(**{field: value})
        assert err.value.where == field
    with pytest.raises(ValueError, match="^n = 300.5: "):
        small_cfg(scenario=dict(SMALL, n=300.5))
    # a string or a bool is not a count: True would run 1 replication
    for field, value in (("replications", True), ("workers", "2"),
                         ("seed", np.bool_(False))):
        with pytest.raises(DimensionError, match=f"^{field} = ") as err:
            small_cfg(**{field: value})
        assert err.value.where == field
    with pytest.raises(DimensionError, match="^n = '300': "):
        small_cfg(scenario=dict(SMALL, n="300"))
    assert type(small_cfg(replications=2.0).replications) is int


def test_config_dict_roundtrip():
    cfg = ExperimentConfig(sweep="arm_sizes", values=[[4, 4], [6, 6]],
                           methods=("ols",), workers=2)
    assert cfg.values == ((4, 4), (6, 6))
    # through JSON, which turns the tuples back into lists
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    # tuples in the scenario too
    cfg = ExperimentConfig(sweep="n", values=(150,), methods=("ols",),
                           scenario={"group_dims": (8, 8), "ranks": [6, 3, 3]})
    assert cfg.scenario == {"group_dims": (8, 8), "ranks": (6, 3, 3)}
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    with pytest.raises(ValueError, match="unknown experiment fields"):
        ExperimentConfig.from_dict({"sweep": "default", "replicas": 3})
    # the replication count belongs to the experiment, not the scenario
    with pytest.raises(ValueError,
                       match=r"unknown scenario fields \['replications'\]"):
        small_cfg(scenario=dict(SMALL, replications=3))


def test_battery_configs_load():
    """The checked-in battery: eight configs, each named after its file."""
    paths = sorted(ROOT.joinpath("configs").glob("*.json"))
    names = []
    for path in paths:
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert cfg.name == path.stem
        assert cfg.cells()
        names.append(cfg.name)
    assert sorted(names) == sorted([
        "method_comparison", "rank_sweep", "arm_sweep", "body_sweep",
        "n_sweep", "noise_sweep", "transfer_delta0", "transfer_delta3"])


def test_cells_sweep_semantics():
    cfg = small_cfg()
    cells = cfg.cells()
    assert len(cells) == 1 and cells[0][0] == ""
    assert cells[0][1].seed == 7 and cells[0][1].p == 8

    rank_cells = ExperimentConfig(sweep="ranks",
                                  values=[[4, 2, 2], (8, 4, 4)],
                                  methods=("ols",), seed=1).cells()
    assert [v for v, _ in rank_cells] == ["4x2x2", "8x4x4"]
    assert rank_cells[0][1].ranks == (4, 2, 2)
    assert rank_cells[1][1].ranks == (8, 4, 4)
    assert rank_cells[1][1].seed == 1

    arm_cells = ExperimentConfig(sweep="arm_sizes", values=((4, 4), (6, 6)),
                                 methods=("ols",)).cells()
    assert [v for v, _ in arm_cells] == ["4x4", "6x6"]
    assert arm_cells[0][1].arm_sizes == (4, 4)
    assert arm_cells[1][1].arm_sizes == (6, 6)

    body_cells = ExperimentConfig(sweep="body_sizes", values=((4, 4),),
                                  methods=("ols",)).cells()
    assert body_cells[0][1].body_sizes == (4, 4)
    assert body_cells[0][1].arm_sizes == (5, 5)

    n_cells = ExperimentConfig(sweep="n", values=(150, 2400),
                               methods=("ols",)).cells()
    assert [v for v, _ in n_cells] == ["150", "2400"]
    assert [c.n for _, c in n_cells] == [150, 2400]

    noise_cells = ExperimentConfig(sweep="noise_std", values=(0.5, 4.0),
                                   methods=("ols",),
                                   scenario={"n_target": 150}).cells()
    assert [v for v, _ in noise_cells] == ["0.5", "4.0"]
    assert [(c.noise_std, c.n_target) for _, c in noise_cells] == \
        [(0.5, 150), (4.0, 150)]


def test_bad_swept_value_fails_on_load():
    """Every cell's ScenarioConfig is built with the config, so a value
    that no replication could use fails when the config loads."""
    with pytest.raises(ValueError, match="^arm_sizes "):
        ExperimentConfig(sweep="arm_sizes", values=((5, 5), (9, 9)),
                         methods=("ols",))


def test_a_method_listed_twice_fails_on_load():
    """Its rows would be averaged as twice the replications, with an
    understated standard error."""
    with pytest.raises(ValueError, match=r"methods \['ols'\] listed twice"):
        small_cfg(methods=("ols", "tensordg", "ols"))


@pytest.mark.parametrize("sweep, values, repeated", [
    ("n", (300, 300.0), "cell n = 300.0 repeats cell n = 300"),
    ("ranks", ([4, 2, 2], (4, 2, 2)),
     "cell ranks = 4x2x2 repeats cell ranks = 4x2x2"),
], ids=["value", "label"])
def test_a_cell_listed_twice_fails_on_load(sweep, values, repeated):
    """Two cells that run one scenario, under one label or two."""
    with pytest.raises(ValueError, match=f"^{repeated}: "):
        ExperimentConfig(sweep=sweep, values=values, methods=("ols",))


def test_a_cell_with_no_unobserved_group_fails_on_load():
    """With arms as wide as the group space every group is observed, so
    adge has nothing to score and every row would fail."""
    scenario = dict(SMALL, group_dims=(4, 4), body_sizes=(3, 3))
    with pytest.raises(ValueError, match="^the scenario: the pattern "
                                         "observes every group"):
        small_cfg(scenario=dict(scenario, arm_sizes=(4, 4)))
    del scenario["arm_sizes"]
    with pytest.raises(ValueError, match="^cell arm_sizes = 4x4: "):
        small_cfg(sweep="arm_sizes", values=((2, 2), (4, 4)),
                  scenario=scenario)


def test_field_swept_and_set_in_scenario_fails_on_load():
    with pytest.raises(ValueError, match="scenario sets the swept field 'n'"):
        ExperimentConfig(sweep="n", values=(300,), methods=("ols",),
                         scenario={"n": 150})


def test_noiseless_ols_rep_scores_zero_errors():
    cfg = small_cfg(methods=("ols",), replications=1,
                    scenario=dict(SMALL, noise_std=0.0))
    records = run_experiment(cfg)
    assert len(records) == 1
    rec = records[0]
    assert (rec.cell_param, rec.cell_value, rec.rep) == ("default", "", 0)
    assert rec.method == "ols" and rec.failed == 0
    assert rec.adge < 1e-8 and rec.al2e < 1e-8 and rec.tle < 1e-8


def test_all_methods_produce_finite_records():
    cfg = small_cfg(methods=("tensordg", "tensortl", "ols", "maximin",
                             "metalm"), replications=1)
    records = run_experiment(cfg)
    assert [r.method for r in records] == list(cfg.methods)
    for rec in records:
        assert rec.failed == 0
        for value in (rec.al2e, rec.adge, rec.tle):
            assert value is not None and math.isfinite(value) and value >= 0


ALL_METHODS = ("tensordg", "tensortl", "ols", "maximin", "metalm")


def test_method_table_is_the_known_method_list():
    assert experiments.KNOWN_METHODS == tuple(experiments.METHODS) \
        == ALL_METHODS


def test_one_replication_fits_the_groups_once(monkeypatch):
    """All five methods share one fit_all per replication."""
    calls = []
    original = experiments.fit_all

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit_all", counted)
    monkeypatch.setattr(completion, "fit_all", counted)
    records = run_experiment(small_cfg(methods=ALL_METHODS, replications=1))
    assert [r.failed for r in records] == [0] * len(ALL_METHODS)
    assert len(calls) == 1


def test_one_replication_forms_the_pooled_gram_once(monkeypatch):
    """maximin reads the pooled Gram that the shared fit summed, so no
    replication calls pooled_gram to form it a second time."""
    calls = []
    original = baselines.pooled_gram

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(baselines, "pooled_gram", counted)
    monkeypatch.setattr(experiments, "pooled_gram", counted, raising=False)
    records = run_experiment(small_cfg(methods=ALL_METHODS, replications=1))
    assert [r.failed for r in records] == [0] * len(ALL_METHODS)
    assert calls == []


def test_one_replication_runs_one_mode0_step(monkeypatch):
    """metalm reads the completion fit's mode-0 basis, so all five
    methods build each mode Gram once: q + 1 of them."""
    calls = []
    original = spectral.mode_gram

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "mode_gram", counted)
    records = run_experiment(small_cfg(methods=ALL_METHODS, replications=1))
    assert [r.failed for r in records] == [0] * len(ALL_METHODS)
    assert sorted(calls) == [0, 1, 2]


def test_metalm_fails_with_the_completion_fit(monkeypatch):
    """metalm shares the completion fit, so it fails where that fit does;
    ols and maximin do not need it."""
    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(experiments, "fit_tensordg", boom)
    records = run_experiment(small_cfg(methods=ALL_METHODS, replications=1))
    assert {r.method: r.failed for r in records} == {
        "tensordg": 1, "tensortl": 1, "ols": 0, "maximin": 0, "metalm": 1}


def test_methods_share_no_state_through_the_replication():
    """Each method scores the same alone, together, and in reverse."""
    def by_method(methods):
        records = run_experiment(small_cfg(methods=methods))
        return {(r.rep, r.method): replace(r, seconds=0.0) for r in records}

    together = by_method(ALL_METHODS)
    assert by_method(ALL_METHODS[::-1]) == together
    alone = {}
    for method in ALL_METHODS:
        alone.update(by_method((method,)))
    assert alone == together
    assert all(not r.failed for r in together.values())


def test_metalm_row_matches_per_target_meta_lm_star():
    """Reading the completion fit's mode-0 basis changes no digit: the
    metalm row equals meta_lm_star called per target, on the replication
    the harness draws (its training statistics)."""
    cfg = small_cfg(methods=("metalm",), replications=1)
    (rec,) = run_experiment(cfg)
    scenario = make_scenario(cfg.cells()[0][1], 0, statistics=True)
    est = fit_all(scenario.train, scenario.pattern)
    arr = np.zeros(scenario.truth.dims)
    for g in scenario.pattern.observed_list():
        arr[(slice(None),) + tuple(i - 1 for i in g)] = est.tilde[g].coef
    errors = []
    for g, (X, y) in sorted(scenario.targets.items()):
        coef = meta_lm_star(est, scenario.pattern, X, y)
        arr[(slice(None),) + tuple(i - 1 for i in g)] = coef
        errors.append(tle(coef, scenario.gammas[g]))
    tensor = DenseTensor(arr)
    assert rec.failed == 0
    assert rec.al2e == al2e(tensor, scenario.truth)
    assert rec.adge == adge(tensor, scenario.truth, scenario.pattern)
    assert rec.tle == float(np.mean(errors))


def test_target_fits_are_bitwise_runs_of_one():
    """ols and metalm fit the nine reference targets as one run of
    ols_fits (a block of eight and a block of one); each target's
    coefficient is bitwise its own ols_fit and its own projected fit on
    the completion's mode-0 basis."""
    scenario = make_scenario(ScenarioConfig(n_target=150), 0)
    ctx = experiments._Replication(scenario)
    ols_hat = experiments.METHODS["ols"](ctx)[1]
    metalm_hat = experiments.METHODS["metalm"](ctx)[1]
    basis = ctx.model.bases[0]
    assert len(scenario.targets) == 9
    for g, (X, y) in scenario.targets.items():
        assert ols_hat[g].tobytes() == ols_fit(X, y)[0].tobytes()
        assert metalm_hat[g].tobytes() == \
            projected_fits(basis, {g: (X, y)})[g].tobytes()


@pytest.mark.parametrize("method", ["ols", "metalm"])
def test_a_bad_target_is_named(method):
    """A target with one sample has too few for either fit: the error
    names that target, not the first of the run."""
    scenario = make_scenario(ScenarioConfig(**SMALL), 0)
    bad = sorted(scenario.targets)[1]
    X, y = scenario.targets[bad]
    scenario.targets[bad] = (X[:1], y[:1])
    with pytest.raises(DimensionError,
                       match=re.escape(f"group {bad}: need ")) as err:
        experiments.METHODS[method](experiments._Replication(scenario))
    assert err.value.where == bad


def test_rerun_is_deterministic():
    cfg = small_cfg()
    first = [replace(r, seconds=0.0) for r in run_experiment(cfg)]
    second = [replace(r, seconds=0.0) for r in run_experiment(cfg)]
    assert first == second


def test_serial_and_parallel_records_match():
    serial = run_experiment(small_cfg(workers=1))
    parallel = run_experiment(small_cfg(workers=2))
    assert [replace(r, seconds=0.0) for r in serial] == \
           [replace(r, seconds=0.0) for r in parallel]


def test_summarize_matches_recomputation():
    cfg = small_cfg(replications=4)
    records = run_experiment(cfg)
    rows = summarize(records)
    assert all(isinstance(r, MetricsRecord) for r in rows)
    assert [(r.rep, r.method) for r in rows] == \
           [("mean", "tensordg"), ("se", "tensordg"),
            ("mean", "ols"), ("se", "ols")]
    for method in cfg.methods:
        vals = [r.adge for r in records if r.method == method]
        mean_row = next(r for r in rows
                        if r.method == method and r.rep == "mean")
        se_row = next(r for r in rows
                      if r.method == method and r.rep == "se")
        assert mean_row.adge == pytest.approx(np.mean(vals), abs=1e-15)
        assert se_row.adge == pytest.approx(
            np.std(vals, ddof=1) / math.sqrt(len(vals)), abs=1e-15)
        assert mean_row.failed == 0


def test_failure_isolation(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(experiments, "fit_tensordg", boom)
    records = run_experiment(small_cfg())
    dg = [r for r in records if r.method == "tensordg"]
    ols = [r for r in records if r.method == "ols"]
    assert [r.failed for r in dg] == [1, 1]
    assert all(r.al2e is None and r.adge is None and r.tle is None
               for r in dg)
    assert [r.failed for r in ols] == [0, 0]
    assert all(r.adge is not None for r in ols)
    rows = summarize(records)
    dg_mean = next(r for r in rows
                   if r.method == "tensordg" and r.rep == "mean")
    assert dg_mean.failed == 2 and dg_mean.al2e is None
    ols_mean = next(r for r in rows
                    if r.method == "ols" and r.rep == "mean")
    assert ols_mean.failed == 0 and ols_mean.al2e is not None


def test_metrics_record_row_formatting():
    rec = MetricsRecord("ranks", "6x3x3", 5, "ols", 0.25, 0.5, None, 0, 1.5)
    assert rec.row() == ["ranks", "6x3x3", "5", "ols", "0.25", "0.5", "",
                         "0", "1.5"]
    failed = MetricsRecord("default", "", 0, "tensordg", failed=1)
    assert failed.row() == ["default", "", "0", "tensordg", "", "", "",
                            "1", "0.0"]


def strip_seconds(path):
    with open(path, newline="") as handle:
        return [line[:-1] for line in csv.reader(handle)]


def test_metrics_csv_layout_and_determinism(tmp_path):
    cfg = small_cfg()
    records = run_experiment(cfg)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_metrics_csv(path_a, records)
    write_metrics_csv(path_b, run_experiment(cfg))

    rows = strip_seconds(path_a)
    full_header = rows[0] + ["seconds"]
    assert full_header == CSV_HEADER
    n_methods = len(cfg.methods)
    assert len(rows) == 1 + cfg.replications * n_methods + 2 * n_methods
    body = rows[1:1 + cfg.replications * n_methods]
    assert {r[3] for r in body} == set(cfg.methods)
    summary = rows[1 + cfg.replications * n_methods:]
    assert [r[2] for r in summary] == ["mean", "se"] * n_methods
    assert strip_seconds(path_a) == strip_seconds(path_b)

    without_summaries = tmp_path / "c.csv"
    write_metrics_csv(without_summaries, records, summaries=False)
    assert len(strip_seconds(without_summaries)) == \
        1 + cfg.replications * n_methods


BATTERY = ROOT / "tests" / "data" / "battery"
NUMERIC = {"al2e", "adge", "tle"}


@pytest.mark.parametrize("name", sorted(
    path.stem for path in (ROOT / "configs").glob("*.json")))
def test_battery_matches_golden_csv(name, tmp_path):
    """Each checked-in config, rerun with 3 replications from seed 5,
    writes the CSV stored in tests/data/battery in every column but
    seconds: text exactly, metrics to 1e-10 relative."""
    cfg = ExperimentConfig.from_dict(
        json.loads((ROOT / "configs" / f"{name}.json").read_text()))
    out = tmp_path / f"{name}.csv"
    write_metrics_csv(out, run_experiment(replace(cfg, replications=3,
                                                  seed=5)))
    with open(out, newline="") as handle:
        got = list(csv.DictReader(handle))
    with open(BATTERY / f"{name}.csv", newline="") as handle:
        want = list(csv.DictReader(handle))
    assert len(got) == len(want)
    for row, golden in zip(got, want):
        assert row.keys() == golden.keys()
        for column in CSV_HEADER:
            if column == "seconds":
                continue
            if column in NUMERIC and golden[column]:
                assert math.isclose(float(row[column]),
                                    float(golden[column]), rel_tol=1e-10,
                                    abs_tol=0.0), (column, row, golden)
            else:
                assert row[column] == golden[column], (column, row, golden)
