"""Determinism self-test of the benchmark.

Two traced runs with the same workload seed must give identical quality
values and identical work counts (``*.calls``, ``*.iters``, ``*.bytes``,
``linalg.*``); a different seed must change the inputs. The metric names
must match BENCHMARK.json. Run from the root of a checkout (a few minutes
on a 2-core machine):

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import per_layer  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".iters", ".bytes")
QUALITY = ("ops", "fail_frac", "adge_mean", "rank_hit_frac", "tle_mean",
           "support_hit_frac", "quality_ops", "skipped_seeds")


def counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(COUNT_SUFFIXES) or k.startswith("linalg.")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_quality_and_counts(name, tmp_path):
    runs = [bench.run(name, 7, 0.0, True, tmp_path / str(k), setup_reps=1)
            for k in range(2)]
    (m1, traced1, extra1), (m2, traced2, extra2) = runs
    assert not traced1["problems"] and not traced2["problems"]
    assert traced1["quality"] == traced2["quality"]
    assert [extra1.get(k) for k in QUALITY] == [extra2.get(k) for k in QUALITY]
    assert extra1["adge_mean"][0] > 0
    assert counts(m1) == counts(m2)
    assert any(v > 0 for v in counts(m1).values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name, tmp_path):
    prints = []
    for seed in (7, 8):
        wl = workloads.WORKLOADS[name](seed, str(tmp_path))
        wl.make_inputs()
        prints.append([wl.fingerprint(i) for i in range(2)])
        assert prints[-1][0] != prints[-1][1]
    assert prints[0][0] != prints[1][0]
    assert prints[0][1] != prints[1][1]


def test_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        per_layer.UNITS
