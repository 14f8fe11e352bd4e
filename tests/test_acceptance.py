"""Acceptance suite: one end-to-end check per shipped claim.

Each criterion is one test that prints exactly one pass/fail line with
its measured quantities. Tolerances and design constants are pinned
inline; nothing is calibrated at run time.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from tensor_reference import dematricize
from tensordg import (DenseTensor, ExperimentConfig, GroupedDataset,
                      ScenarioConfig, arm_blocks, build_pattern,
                      diagnose_generalizability, fit_all, fit_tensordg,
                      group_lasso, group_lasso_kkt, lasso_kkt, lasso_offset,
                      make_scenario, matricize, mode_product, run_experiment,
                      tucker_assemble)
from tensordg.cli import main as cli_main
from tensordg.highdim import lambda_grid


def criterion(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def relative_gap(diff, ref):
    return float(np.abs(diff).max() / max(np.abs(ref).max(), 1e-30))


# ---------------------------------------------------------------------------
# criterion 1: noiseless end-to-end recovery on randomized designs


def sample_noiseless_config(rng, i):
    """Random solvable design: q in {1, 2}, p <= 12, group dims <= 6,
    mode-0 rank <= 4, group-mode ranks <= 2. Every spectral tail keeps a
    zero bottom half (dimension >= twice the rank), so exact recovery is
    the correct answer."""
    if i % 2 == 0:
        r = int(rng.integers(1, 3))
        p = int(rng.integers(max(2 * r, 3), 13))
        d1 = int(rng.integers(2 * r, 7))
        w1 = int(rng.integers(2 * r, d1 + 1))
        return ScenarioConfig(q=1, p=p, group_dims=(d1,), ranks=(r, r),
                              body_sizes=(w1,), arm_sizes=(1,), n=p + 10,
                              n_target=5, noise_std=0.0, signal_scale=3.0,
                              seed=1000 + i)
    r1, r2 = (int(v) for v in rng.integers(1, 3, size=2))
    lo = max(-(-r1 // r2), -(-r2 // r1))
    r0 = int(rng.integers(lo, min(4, r1 * r2) + 1))
    p = int(rng.integers(max(2 * r0, 4), 13))
    dims, bodies = [], []
    for rt in (r1, r2):
        d = int(rng.integers(2 * rt, 7))
        dims.append(d)
        bodies.append(int(rng.integers(2 * rt, d + 1)))
    arms = [int(rng.integers(max(r1, r2), w + 1)) for w in bodies]
    return ScenarioConfig(q=2, p=p, group_dims=tuple(dims),
                          ranks=(r0, r1, r2), body_sizes=tuple(bodies),
                          arm_sizes=tuple(arms), n=p + 12, n_target=5,
                          noise_std=0.0, signal_scale=3.0, seed=1000 + i)


def test_criterion_1_noiseless_recovery_is_exact():
    rng = np.random.default_rng(911)
    start = time.perf_counter()
    worst_rel = 0.0
    coef_ok = True
    for i in range(20):
        cfg = sample_noiseless_config(rng, i)
        scenario = make_scenario(cfg, 0)
        model = fit_tensordg(scenario.train, scenario.pattern)
        worst_rel = max(worst_rel,
                        np.linalg.norm(model.tensor.array
                                       - scenario.truth.array)
                        / np.linalg.norm(scenario.truth.array))
        for g in scenario.pattern.unobserved_list():
            fiber = scenario.truth.array[
                (slice(None),) + tuple(l - 1 for l in g)]
            if not np.allclose(model.coefficient(g), fiber,
                               rtol=1e-8, atol=1e-8):
                coef_ok = False
    elapsed = time.perf_counter() - start
    criterion(1, worst_rel < 1e-8 and coef_ok and elapsed < 10.0,
              f"20 noiseless designs, worst relative error "
              f"{worst_rel:.2e} (< 1e-08), unseen coefficients matched: "
              f"{coef_ok}, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 2: tensor-algebra property suite


def test_criterion_2_tensor_algebra_properties():
    rng = np.random.default_rng(922)
    worst = {"roundtrip": 0.0, "unfold": 0.0, "commute": 0.0}
    for _ in range(1000):
        ndim = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(1, 6, size=ndim))
        tensor = DenseTensor(rng.normal(size=dims))
        t = int(rng.integers(0, ndim))

        back = dematricize(matricize(tensor, t), t, dims)
        worst["roundtrip"] = max(worst["roundtrip"],
                                 relative_gap(back - tensor.array,
                                              tensor.array))

        mat = rng.normal(size=(dims[t], int(rng.integers(1, 6))))
        lhs = matricize(mode_product(tensor, mat, t), t)
        rhs = mat.T @ matricize(tensor, t)
        worst["unfold"] = max(worst["unfold"], relative_gap(lhs - rhs, rhs))

        s, u = (int(v) for v in rng.choice(ndim, size=2, replace=False))
        mat_s = rng.normal(size=(dims[s], int(rng.integers(1, 6))))
        mat_u = rng.normal(size=(dims[u], int(rng.integers(1, 6))))
        one = mode_product(mode_product(tensor, mat_s, s), mat_u, u)
        two = mode_product(mode_product(tensor, mat_u, u), mat_s, s)
        worst["commute"] = max(worst["commute"],
                               relative_gap(one.array - two.array,
                                            one.array))
    ok = all(v < 1e-10 for v in worst.values())
    criterion(2, ok,
              "1000 cases each, worst relative violation: roundtrip "
              f"{worst['roundtrip']:.1e}, unfolding {worst['unfold']:.1e}, "
              f"commutativity {worst['commute']:.1e} (each < 1e-10)")


# ---------------------------------------------------------------------------
# criteria 3 and 8 share 200 fits of the reference design


@pytest.fixture(scope="module")
def reference_design_fits():
    cfg = ScenarioConfig()   # the reference design is the default config
    start = time.perf_counter()
    ranks, consistent = [], []
    for rep in range(200):
        scenario = make_scenario(cfg, rep)
        model = fit_tensordg(scenario.train, scenario.pattern)
        ranks.append(tuple(model.ranks))
        consistent.append(
            model.diagnostics["generalizability"]["consistent"])
    return {"ranks": ranks, "consistent": consistent,
            "true_ranks": cfg.ranks,
            "seconds": time.perf_counter() - start}


def test_criterion_3_rank_recovery_rate(reference_design_fits):
    fits = reference_design_fits
    hits = sum(r == fits["true_ranks"] for r in fits["ranks"])
    ok = hits >= 190 and fits["seconds"] < 300.0
    criterion(3, ok,
              f"reference design, 200 replications: exact rank recovery "
              f"{hits}/200 (>= 190), {fits['seconds']:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# criterion 4: method comparison on unseen groups


def mean_se(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def test_criterion_4_method_comparison_margin():
    cfg = ExperimentConfig(sweep="default",
                           methods=("tensordg", "ols", "maximin"),
                           replications=100, seed=0)
    records = run_experiment(cfg)
    assert not any(r.failed for r in records)
    by_method = {}
    for rec in records:
        by_method.setdefault(rec.method, []).append(rec.adge)
    dg_mean, dg_se = mean_se(by_method["tensordg"])
    ols_mean, ols_se = mean_se(by_method["ols"])
    mm_mean, _ = mean_se(by_method["maximin"])
    margin = ols_mean - dg_mean
    need = 2.0 * math.hypot(dg_se, ols_se)
    ok = margin >= need and mm_mean > dg_mean
    criterion(4, ok,
              f"mean unseen-group error: tensordg {dg_mean:.4f}, ols "
              f"{ols_mean:.4f}, maximin {mm_mean:.4f}; margin {margin:.4f} "
              f">= 2 combined standard errors ({need:.4f}); maximin above "
              f"tensordg: {mm_mean > dg_mean}")


# ---------------------------------------------------------------------------
# criterion 5: parameter sweeps order the mean error


def sweep_cells(sweep, values):
    cfg = ExperimentConfig(sweep=sweep, values=values,
                           methods=("tensordg",), replications=100, seed=0)
    per_cell, failed_reps = {}, set()
    for rec in run_experiment(cfg):
        if rec.failed:
            failed_reps.add(rec.rep)
        else:
            per_cell.setdefault(rec.cell_value, {})[rec.rep] = rec.al2e
    return per_cell, failed_reps


def ordered_beyond_one_se(per_cell, failed_reps, values, increasing):
    """Strict sample-mean ordering, with each adjacent gap larger than
    one standard error of the paired per-replication difference
    (replications share random numbers across cells)."""
    means = []
    for v in values:
        cell = [e for rep, e in per_cell[str(v)].items()
                if rep not in failed_reps]
        means.append(float(np.mean(cell)))
    checks, gaps = [], []
    for low, high in zip(values, values[1:]):
        a, b = per_cell[str(low)], per_cell[str(high)]
        reps = [rep for rep in a if rep in b and rep not in failed_reps]
        diffs = np.array([b[rep] - a[rep] for rep in reps])
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        gap = float(diffs.mean())
        if not increasing:
            gap = -gap
        checks.append(gap > se)
        gaps.append(gap / se)
    direction = all(x < y for x, y in zip(means, means[1:]))
    if not increasing:
        direction = all(x > y for x, y in zip(means, means[1:]))
    return direction and all(checks), means, gaps


def test_criterion_5_parameter_sweep_trends():
    results = {}
    for sweep, values, increasing in (
            ("ranks", ((4, 2, 2), (6, 3, 3), (8, 4, 4)), True),
            ("arm_sizes", ((4, 4), (5, 5), (6, 6)), False),
            ("body_sizes", ((4, 4), (5, 5), (6, 6)), False)):
        per_cell, failed_reps = sweep_cells(sweep, values)
        labels = ["x".join(map(str, v)) for v in values]
        results[sweep] = ordered_beyond_one_se(per_cell, failed_reps,
                                               labels, increasing)
    ok = all(res[0] for res in results.values())
    detail = "; ".join(
        f"{sweep} means "
        + "/".join(f"{m:.3f}" for m in res[1])
        + " gaps "
        + "/".join(f"{g:.1f}se" for g in res[2])
        for sweep, res in results.items())
    criterion(5, ok, f"100 replications per cell ({detail}); every "
                     "ordering strict and every gap beyond one standard "
                     "error")


# ---------------------------------------------------------------------------
# criterion 6: transfer comparison with and without a sparse shift


def transfer_means(delta_sparsity):
    cfg = ExperimentConfig(
        sweep="default", methods=("tensordg", "tensortl", "ols"),
        replications=100, seed=0,
        scenario={"n_target": 150, "delta_sparsity": delta_sparsity})
    by_method = {}
    for rec in run_experiment(cfg):
        assert not rec.failed
        by_method.setdefault(rec.method, []).append(rec.tle)
    return {m: float(np.mean(v)) for m, v in by_method.items()}


def test_criterion_6_transfer_trends():
    clean = transfer_means(0)
    shifted = transfer_means(3)
    ok_clean = (clean["tensortl"] <= 1.1 * clean["tensordg"]
                and clean["tensortl"] < clean["ols"]
                and clean["tensordg"] < clean["ols"])
    ok_shifted = shifted["tensortl"] < shifted["ols"]
    criterion(6, ok_clean and ok_shifted,
              f"no shift: tensortl {clean['tensortl']:.4f} <= 1.1 x "
              f"tensordg {clean['tensordg']:.4f}, both < ols "
              f"{clean['ols']:.4f}; 3-sparse shift: tensortl "
              f"{shifted['tensortl']:.4f} < ols {shifted['ols']:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: solver certificates


def lasso_instances():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 61))
        p = int(rng.integers(5, 41))
        X = rng.normal(size=(n, p))
        offset = rng.normal(size=p) * 0.5
        beta = np.where(rng.random(p) < 0.3, rng.normal(size=p), 0.0)
        y = X @ (offset + beta) + rng.normal(size=n)
        lam_max = 2.0 * np.abs(X.T @ (y - X @ offset)).max() / n
        lam = float(rng.uniform(0.02, 0.5)) * lam_max
        delta = lasso_offset(X, y, offset, lam)
        worst = max(worst, lasso_kkt(X, y, offset, delta, lam))
    return worst


def group_lasso_instances():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        p = int(rng.integers(5, 16))
        groups = {}
        for g in range(1, m + 1):
            n = int(rng.integers(p, 3 * p + 1))
            X = rng.normal(size=(n, p))
            beta = np.where(rng.random(p) < 0.4, rng.normal(size=p), 0.0)
            groups[(g,)] = (X, X @ beta + rng.normal(size=n))
        ds = GroupedDataset(groups)
        lam = float(rng.uniform(0.02, 0.5)) * lambda_grid(ds)[0]
        beta_hat = group_lasso(ds, lam)
        worst = max(worst, group_lasso_kkt(ds, beta_hat, lam))
    return worst


def orthonormal_gap():
    rng = np.random.default_rng(1)
    n, p = 32, 5
    X = np.linalg.qr(rng.normal(size=(n, p)))[0] * math.sqrt(n)
    offset = rng.normal(size=p)
    y = X @ (offset + np.array([0.8, 0.0, -0.4, 0.05, 0.0]))
    lam = 0.3
    corr = X.T @ (y - X @ offset) / n
    closed_form = np.sign(corr) * np.maximum(np.abs(corr) - lam / 2.0, 0.0)
    return float(np.abs(lasso_offset(X, y, offset, lam)
                        - closed_form).max())


def grid_gap():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    offset = np.array([0.5, -0.2])
    y = X @ (offset + np.array([0.7, -0.3])) + 0.1 * rng.normal(size=40)
    lam = 0.25
    got = lasso_offset(X, y, offset, lam)
    residual0 = y - X @ offset
    const = float(residual0 @ residual0) / 40
    lin = X.T @ residual0 / 40
    quad = X.T @ X / 40
    axis = np.arange(-1.5, 1.5001, 0.001)
    d1, d2 = (v.ravel() for v in np.meshgrid(axis, axis, indexing="ij"))
    objs = (const - 2.0 * (lin[0] * d1 + lin[1] * d2) + quad[0, 0] * d1 ** 2
            + 2.0 * quad[0, 1] * d1 * d2 + quad[1, 1] * d2 ** 2
            + lam * (np.abs(d1) + np.abs(d2)))
    best = int(np.argmin(objs))
    return float(max(abs(got[0] - d1[best]), abs(got[1] - d2[best])))


def test_criterion_7_solver_certificates():
    worst_lasso = lasso_instances()
    worst_group = group_lasso_instances()
    closed = orthonormal_gap()
    grid = grid_gap()
    ok = (worst_lasso < 1e-6 and worst_group < 1e-6 and closed < 1e-6
          and grid <= 1e-3)
    criterion(7, ok,
              f"worst stationarity residual over 100 random instances: "
              f"lasso {worst_lasso:.1e}, group lasso {worst_group:.1e} "
              f"(each < 1e-06); orthonormal closed form gap {closed:.1e} "
              f"(< 1e-06); p=2 grid-search gap {grid:.1e} (<= 1e-03)")


# ---------------------------------------------------------------------------
# criterion 8: diagnostics on conforming and violating instances


def violating_instance(seed):
    """Truth whose mode-1 arm block carries a direction the body never
    sees: the arm rank exceeds the joint rank by construction."""
    rng = np.random.default_rng(seed)
    p, space, ranks = 8, (6, 6), (3, 2, 2)
    core = rng.normal(size=ranks) * 6.0
    factors = [np.linalg.qr(rng.normal(size=(d, r)))[0].T
               for d, r in zip((p,) + space, ranks)]
    arr = np.array(tucker_assemble(core, factors).array)
    bump = rng.normal(size=(p, 2))
    arr[:, 5, 0] += bump[:, 0] * 4.0
    arr[:, 5, 1] += bump[:, 1] * 4.0
    pattern = build_pattern(space, body=[(1, 2, 3, 4), (1, 2, 3, 4)],
                            arm_subsets=[[(1, 2)], [(1, 2)]])
    groups = {}
    for g in pattern.observed_list():
        X = rng.normal(size=(60, p))
        coef = arr[(slice(None),) + tuple(i - 1 for i in g)]
        groups[g] = (X, X @ coef)
    return GroupedDataset(groups), pattern


def test_criterion_8_generalizability_diagnostics(reference_design_fits):
    consistent = sum(reference_design_fits["consistent"])
    flagged = 0
    for seed in range(20):
        ds, pattern = violating_instance(3000 + seed)
        report = diagnose_generalizability(
            arm_blocks(fit_all(ds, pattern), pattern), pattern)
        flagged += not report["consistent"]
    ok = consistent >= 180 and flagged == 20
    criterion(8, ok,
              f"reference design consistent {consistent}/200 (>= 180); "
              f"constructed arm-rank violations flagged {flagged}/20")


# ---------------------------------------------------------------------------
# criterion 9: serial and parallel runs write the same table


def rows_without_seconds(path):
    with open(path, newline="") as handle:
        return [row[:-1] for row in csv.reader(handle)]


def test_criterion_9_serial_parallel_determinism(tmp_path):
    config = {"name": "determinism", "sweep": "default",
              "methods": ["tensordg", "ols"], "replications": 4, "seed": 0,
              "scenario": {}}
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    serial_csv = tmp_path / "serial.csv"
    parallel_csv = tmp_path / "parallel.csv"
    rc_serial = cli_main(["experiment", "--config", str(cfg_path),
                          "--out", str(serial_csv), "--workers", "1"])
    rc_parallel = cli_main(["experiment", "--config", str(cfg_path),
                            "--out", str(parallel_csv), "--workers", "2"])
    serial_rows = rows_without_seconds(serial_csv)
    parallel_rows = rows_without_seconds(parallel_csv)
    ok = (rc_serial == 0 and rc_parallel == 0
          and serial_rows == parallel_rows and len(serial_rows) > 1)
    criterion(9, ok,
              f"experiment runs with workers=1 and workers=2 wrote "
              f"identical tables ({len(serial_rows)} rows, timing column "
              f"excluded): {serial_rows == parallel_rows}")
