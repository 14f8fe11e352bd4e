"""Command line interface: each subcommand end to end on tiny inputs."""

import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from tensordg import (CSV_HEADER, DimensionError, cli, experiments,
                      load_model, load_pattern)
from tensordg.cli import main
from tensordg.tensor import load_tensor
from tensordg.transfer import DEFAULT_C0

SCENARIO = {"p": 8, "group_dims": [5, 4], "ranks": [3, 2, 2],
            "body_sizes": [4, 4], "arm_sizes": [2, 2], "n": 40,
            "n_target": 60, "noise_std": 0.0, "signal_scale": 4.0,
            "seed": 3}
# an experiment's scenario: the seed is the experiment's
EXPERIMENT_SCENARIO = {k: v for k, v in SCENARIO.items() if k != "seed"}


def write_scenario(tmp_path, **fields):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(SCENARIO, **fields)))
    return str(path)


def simulate(tmp_path, *extra):
    cfg = write_scenario(tmp_path)
    rc = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path),
               "--prefix", "demo", *extra])
    assert rc == 0
    return (str(tmp_path / "demo_data.csv"),
            str(tmp_path / "demo_pattern.json"),
            str(tmp_path / "demo_truth.tns"))


def test_simulate_writes_dataset_pattern_truth(tmp_path):
    data, pattern_path, truth_path = simulate(tmp_path)
    pattern = load_pattern(pattern_path)
    truth = load_tensor(truth_path)
    assert truth.dims == (8, 5, 4)
    with open(data, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["g1", "g2", "y"] + [f"x{j}" for j in range(1, 9)]
    assert len(rows) - 1 == 40 * len(pattern.observed_list())


def test_fit_recovers_truth_and_saves_model(tmp_path, capsys):
    data, pattern_path, truth_path = simulate(tmp_path)
    model_path = str(tmp_path / "model.tns")
    rc = main(["fit", "--data", data, "--pattern", pattern_path,
               "--out", model_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ranks: 3,2,2" in out
    assert "generalizability: consistent" in out
    model = load_model(model_path)
    truth = load_tensor(truth_path)
    assert np.allclose(model.tensor.array, truth.array, atol=1e-6)


def test_fit_highdim_flag(tmp_path, capsys):
    data, pattern_path, truth_path = simulate(tmp_path)
    rc = main(["fit", "--data", data, "--pattern", pattern_path,
               "--highdim", "--lambda", "auto"])
    assert rc == 0
    assert "support size: 8" in capsys.readouterr().out


def test_fit_lambda_requires_highdim(tmp_path, capsys):
    data, pattern_path, _ = simulate(tmp_path)
    rc = main(["fit", "--data", data, "--pattern", pattern_path,
               "--lambda", "0.5"])
    assert rc == 2
    assert "requires --highdim" in capsys.readouterr().err


def test_fit_highdim_with_a_negative_seed_fails_by_name(tmp_path, capsys):
    data, pattern_path, _ = simulate(tmp_path)
    model_path = tmp_path / "model.tns"
    rc = main(["fit", "--data", data, "--pattern", pattern_path,
               "--highdim", "--seed", "-1", "--out", str(model_path)])
    assert rc == 2
    assert "error: seed = -1: need seed >= 0" in capsys.readouterr().err
    assert not model_path.exists()


def test_transfer_on_saved_model(tmp_path, capsys):
    data, pattern_path, truth_path = simulate(tmp_path, "--with-targets")
    model_path = str(tmp_path / "model.tns")
    assert main(["fit", "--data", data, "--pattern", pattern_path,
                 "--out", model_path]) == 0
    capsys.readouterr()
    report_path = str(tmp_path / "transfer.json")
    rc = main(["transfer", "--model", model_path, "--target-group", "5,3",
               "--data", str(tmp_path / "demo_target_5-3.csv"),
               "--out", report_path])
    assert rc == 0
    assert "offset support size:" in capsys.readouterr().out
    report = json.loads((tmp_path / "transfer.json").read_text())
    truth = load_tensor(truth_path)
    # noiseless, no shift: the transfer fit reproduces the truth fiber
    assert np.allclose(report["gamma_hat"], truth.array[:, 4, 2], atol=1e-6)


def test_transfer_single_group_file_note(tmp_path, capsys):
    data, pattern_path, _ = simulate(tmp_path, "--with-targets")
    model_path = str(tmp_path / "model.tns")
    assert main(["fit", "--data", data, "--pattern", pattern_path,
                 "--out", model_path]) == 0
    capsys.readouterr()
    rc = main(["transfer", "--model", model_path, "--target-group", "5,4",
               "--data", str(tmp_path / "demo_target_5-3.csv")])
    assert rc == 0
    assert "note: file group (5,3)" in capsys.readouterr().out


def test_transfer_missing_group_errors(tmp_path, capsys):
    data, pattern_path, _ = simulate(tmp_path)
    model_path = str(tmp_path / "model.tns")
    assert main(["fit", "--data", data, "--pattern", pattern_path,
                 "--out", model_path]) == 0
    rc = main(["transfer", "--model", model_path, "--target-group", "5,3",
               "--data", data])
    assert rc == 2
    assert "not in the data" in capsys.readouterr().err


def test_transfer_rejects_corrupt_model(tmp_path, capsys):
    """One NaN in a saved model's tensor file fails the load, naming the
    file, instead of yielding a NaN transfer fit."""
    data, pattern_path, _ = simulate(tmp_path, "--with-targets")
    model_path = tmp_path / "model.tns"
    assert main(["fit", "--data", data, "--pattern", pattern_path,
                 "--out", str(model_path)]) == 0
    header, first, *rest = model_path.read_text().splitlines(keepends=True)
    values = first.split()
    values[0] = "nan"
    model_path.write_text("".join([header, " ".join(values) + "\n", *rest]))
    capsys.readouterr()
    rc = main(["transfer", "--model", str(model_path), "--target-group",
               "5,3", "--data", str(tmp_path / "demo_target_5-3.csv")])
    assert rc == 2
    assert str(model_path) in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ["space", "ranks", "loading",
                                     "missing", "malformed"])
def test_transfer_rejects_a_sidecar_that_disagrees(tmp_path, capsys,
                                                   corrupt):
    """A sidecar whose pattern space does not match the tensor, whose
    ranks do not match the core, whose loading does not fit its rank and
    mode, or that lacks a key or holds one of the wrong type, fails the
    load with DimensionError naming the sidecar, and transfer exits 2. A
    (5, 5) space on the (8, 5, 4) tensor let target 5,5 end in an
    IndexError traceback, a missing key in a KeyError traceback and a
    list for the pattern in a TypeError traceback."""
    data, pattern_path, _ = simulate(tmp_path, "--with-targets")
    model_path = str(tmp_path / "model.tns")
    assert main(["fit", "--data", data, "--pattern", pattern_path,
                 "--out", model_path]) == 0
    sidecar_path = tmp_path / "model.tns.json"
    sidecar = json.loads(sidecar_path.read_text())
    if corrupt == "space":
        sidecar["pattern"]["space"] = [5, 5]
    elif corrupt == "ranks":
        sidecar["ranks"] = [3, 2, 1]
    elif corrupt == "loading":
        sidecar["loadings"][2] = [row[:-1] for row in sidecar["loadings"][2]]
    elif corrupt == "missing":
        del sidecar["ranks"]
    else:
        sidecar["pattern"] = [5, 4]
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(DimensionError, match=re.escape(str(sidecar_path))):
        load_model(model_path)
    capsys.readouterr()
    rc = main(["transfer", "--model", model_path, "--target-group", "5,5",
               "--data", str(tmp_path / "demo_target_5-3.csv")])
    assert rc == 2
    assert str(sidecar_path) in capsys.readouterr().err


def test_experiment_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "name": "cli-unit", "sweep": "default",
        "methods": ["tensordg", "ols"], "replications": 2, "seed": 5,
        "scenario": dict(EXPERIMENT_SCENARIO, noise_std=1.0)}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "tensordg: mean_al2e=" in stdout and "failed=0" in stdout
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 2 + 2 * 2

    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path), "--reps", "1"])
    assert rc == 0
    assert "mean_tle=" in capsys.readouterr().out
    with open(out_path, newline="") as handle:
        assert len(list(csv.reader(handle))) == 1 + 1 * 2 + 2 * 2


def test_experiment_without_summaries_writes_replication_rows(tmp_path):
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "name": "cli-unit", "methods": ["tensordg", "ols"],
        "replications": 2, "seed": 5, "scenario": EXPERIMENT_SCENARIO}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path), "--no-summaries"])
    assert rc == 0
    with open(out_path, newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == CSV_HEADER
    assert len(rows) == 2 * 2
    assert [row[2] for row in rows] == ["0", "0", "1", "1"]


@pytest.mark.parametrize("extra", [[], ["--no-summaries"]])
def test_experiment_summarizes_once(tmp_path, capsys, monkeypatch, extra):
    """One summarize call per command: the CSV's summary rows and the
    printed mean lines are the same records."""
    calls = []
    summarize = experiments.summarize

    def spy(records):
        calls.append(len(records))
        return summarize(records)

    monkeypatch.setattr(experiments, "summarize", spy)
    monkeypatch.setattr(cli, "summarize", spy)
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "name": "cli-unit", "methods": ["tensordg", "ols"],
        "replications": 2, "seed": 5,
        "scenario": dict(EXPERIMENT_SCENARIO, noise_std=1.0)}))
    out_path = tmp_path / "metrics.csv"
    assert main(["experiment", "--config", str(cfg_path),
                 "--out", str(out_path), *extra]) == 0
    assert calls == [4]
    printed = [line for line in capsys.readouterr().out.splitlines()
               if "mean_al2e=" in line]
    assert len(printed) == 2
    with open(out_path, newline="") as handle:
        means = [row for row in csv.DictReader(handle)
                 if row["rep"] == "mean"]
    assert len(means) == (0 if extra else 2)
    for row in means:
        assert f"{row['method']}: mean_al2e={float(row['al2e']):.4f}" in \
            "\n".join(printed)


def test_experiment_with_a_scenario_seed_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "name": "bad", "methods": ["ols"], "seed": 5,
        "scenario": SCENARIO}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path)])
    assert rc == 2
    assert "error: scenario sets 'seed'" in capsys.readouterr().err
    assert not out_path.exists()


def test_experiment_with_a_negative_seed_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "name": "bad", "methods": ["tensordg", "ols"],
        "scenario": EXPERIMENT_SCENARIO}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path), "--seed", "-1",
               "--out", str(out_path)])
    assert rc == 2
    assert "error: seed = -1" in capsys.readouterr().err
    assert not out_path.exists()


def test_experiment_with_a_bad_swept_value_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "name": "bad", "sweep": "n", "values": [40, 8],
        "methods": ["ols"],
        "scenario": {k: v for k, v in EXPERIMENT_SCENARIO.items()
                     if k != "n"}}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path)])
    assert rc == 2
    assert "error: n = 8" in capsys.readouterr().err
    assert not out_path.exists()


def test_experiment_with_a_rank_margin_of_one_writes_nothing(tmp_path,
                                                           capsys):
    """No singular value ratio exceeds 1, so every replication would fail
    to draw a truth; the config is rejected before any runs."""
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "name": "bad", "methods": ["tensordg", "ols"],
        "scenario": dict(EXPERIMENT_SCENARIO, rank_margin=1.5)}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path)])
    assert rc == 2
    assert "error: rank_margin = 1.5" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("config, error", [
    ({"methods": ["ols", "ols"]}, "error: methods ['ols'] listed twice"),
    ({"sweep": "n", "values": [300, 300.0]},
     "error: cell n = 300.0 repeats cell n = 300"),
    ({"scenario": dict(EXPERIMENT_SCENARIO, arm_sizes=[5, 4])},
     "error: the scenario: the pattern observes every group"),
], ids=["method", "cell", "all-observed"])
def test_experiment_that_would_miscount_writes_nothing(tmp_path, capsys,
                                                      config, error):
    """A repeated method or cell would count one run twice in the
    summary, and a scenario with no unobserved group would fail every
    row; each config is rejected on load with exit code 2."""
    cfg_path = tmp_path / "experiment.json"
    scenario = {k: v for k, v in EXPERIMENT_SCENARIO.items() if k != "n"}
    cfg_path.write_text(json.dumps({"name": "bad", "methods": ["ols"],
                                    "scenario": scenario, **config}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path)])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("config", [
    {"scenario": dict(EXPERIMENT_SCENARIO, n=300.5)},
    {"scenario": EXPERIMENT_SCENARIO, "replications": 2.5},
    # a quoted count or a bool is not a number
    {"scenario": dict(EXPERIMENT_SCENARIO, n="300")},
    {"scenario": EXPERIMENT_SCENARIO, "replications": True},
])
def test_experiment_with_a_non_integral_count_writes_nothing(tmp_path, capsys,
                                                            config):
    """A count is never truncated: the config is rejected on load, with
    exit code 2, instead of running failed rows or raising TypeError."""
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({"name": "bad", "methods": ["ols"],
                                    **config}))
    out_path = tmp_path / "metrics.csv"
    rc = main(["experiment", "--config", str(cfg_path),
               "--out", str(out_path)])
    assert rc == 2
    assert "must be integers" in capsys.readouterr().err
    assert not out_path.exists()


def test_simulate_with_a_non_integral_n_writes_nothing(tmp_path, capsys):
    rc = main(["simulate", "--config", write_scenario(tmp_path, n=300.5),
               "--out-dir", str(tmp_path), "--prefix", "demo"])
    assert rc == 2
    assert "error: n = 300.5: values must be integers" in \
        capsys.readouterr().err
    assert not list(tmp_path.glob("demo_*"))


def test_simulate_with_a_quoted_n_writes_nothing(tmp_path, capsys):
    """float("300") is 300, but a JSON string is not a count."""
    rc = main(["simulate", "--config", write_scenario(tmp_path, n="300"),
               "--out-dir", str(tmp_path), "--prefix", "demo"])
    assert rc == 2
    assert "error: n = '300': values must be integers" in \
        capsys.readouterr().err
    assert not list(tmp_path.glob("demo_*"))



def test_simulate_with_a_negative_rep_writes_nothing(tmp_path, capsys):
    """A negative replication index is rejected by name; it failed inside
    SeedSequence with "expected non-negative integer"."""
    rc = main(["simulate", "--config", write_scenario(tmp_path),
               "--out-dir", str(tmp_path), "--prefix", "demo",
               "--rep", "-1"])
    assert rc == 2
    assert "error: rep = -1: need rep >= 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("demo_*"))

def test_ingest_subcommand(tmp_path, capsys):
    path = tmp_path / "people.csv"
    path.write_text("sex,age,y,x1,x2\n"
                    "M,young,1.0,0.5,0.25\n"
                    "F,young,2.0,1.5,0.5\n"
                    "M,old,3.0,2.5,0.75\n"
                    "F,old,4.0,3.5,1.0\n")
    report_path = tmp_path / "report.json"
    rc = main(["ingest", "--data", str(path), "--group-cols", "sex,age",
               "--response-col", "y", "--out", str(report_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "space: 2x2" in stdout
    assert "'M'->1" in stdout and "'old'->2" in stdout
    report = json.loads(report_path.read_text())
    assert report["space"] == [2, 2]
    assert report["rows"] == 4 and report["features"] == 2
    assert {tuple(g["group"]) for g in report["groups"]} == \
        {(1, 1), (1, 2), (2, 1), (2, 2)}


@pytest.mark.parametrize("text, named", [
    ("g1,y,x1\n1,0.5,1.0\n01,0.7,2.0\n2,0.1,3.0\n", "group column g1"),
    ("g1,g3,y,x1\n1,1,0.5,1.0\n", "group columns ['g1', 'g3']"),
])
def test_ingest_subcommand_names_a_bad_group_column(tmp_path, capsys, text,
                                                    named):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    report_path = tmp_path / "report.json"
    rc = main(["ingest", "--data", str(path), "--out", str(report_path)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("roles, named", [
    (["--group-cols", "g1,g1"], "group column g1 is given twice"),
    (["--response-col", "g1"], "column g1 is both a group and a response"),
    (["--feature-cols", "y,x1"], "column y is both a response and a feature"),
    (["--group-cols", ""], "empty group column name"),
    (["--feature-cols", "x1,"], "empty feature column name"),
])
def test_ingest_subcommand_gives_each_column_one_role(tmp_path, capsys,
                                                      roles, named):
    path = tmp_path / "four.csv"
    path.write_text("g1,g2,y,x1,x2\n1,1,0.5,1.0,2.0\n1,2,0.7,2.0,1.0\n"
                    "2,1,0.1,3.0,0.5\n2,2,0.2,1.5,0.1\n")
    report_path = tmp_path / "report.json"
    rc = main(["ingest", "--data", str(path), *roles,
               "--out", str(report_path)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not report_path.exists()


def test_ingest_subcommand_reads_underscored_levels_as_labels(tmp_path,
                                                              capsys):
    path = tmp_path / "levels.csv"
    path.write_text("g1,y,x1\n1_0,0.5,1.0\n2,0.7,2.0\n1_0,0.1,3.0\n")
    report_path = tmp_path / "report.json"
    assert main(["ingest", "--data", str(path),
                 "--out", str(report_path)]) == 0
    assert "space: 2\n" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["space"] == [2]
    assert report["mappings"] == [{"1_0": 1, "2": 2}]


@pytest.mark.parametrize("group", ["1_0,2", "\u0663,2", "1.0,2"])
def test_transfer_rejects_a_target_group_that_is_not_integers(
        tmp_path, capsys, group):
    """int() read "1_0,2" as the group (10, 2)."""
    data, pattern_path, _ = simulate(tmp_path, "--with-targets")
    model_path = str(tmp_path / "model.tns")
    assert main(["fit", "--data", data, "--pattern", pattern_path,
                 "--out", model_path]) == 0
    capsys.readouterr()
    report_path = tmp_path / "transfer.json"
    rc = main(["transfer", "--model", model_path, "--target-group", group,
               "--data", str(tmp_path / "demo_target_5-3.csv"),
               "--out", str(report_path)])
    assert rc == 2
    assert f"--target-group {group!r}" in capsys.readouterr().err
    assert not report_path.exists()


def test_help_via_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "tensordg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("simulate", "fit", "transfer", "experiment", "ingest"):
        assert name in proc.stdout


def test_transfer_lambda_help_states_the_default_constant(monkeypatch,
                                                          capsys):
    def help_text():
        with pytest.raises(SystemExit):
            main(["transfer", "--help"])
        return " ".join(capsys.readouterr().out.split())

    assert f"{DEFAULT_C0}*sqrt(log(p)/n)" in help_text()
    monkeypatch.setattr(cli, "DEFAULT_C0", 3.5)
    assert "3.5*sqrt(log(p)/n)" in help_text()
