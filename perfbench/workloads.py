"""The four benchmark workloads.

Each workload is a closed loop with one caller: op ``i`` starts only after
op ``i - 1`` has returned. Op ``i`` derives its input seed from the
workload seed and ``i`` alone, so a seed fixes every input. Seeds for
which the simulator cannot draw a truth tensor (its rejection sampler
gives up after ten draws, about once in 400 seeds on the reference design)
are skipped and counted. The warm-up op runs on a fixed input that does
not depend on the seed.

A workload object provides:

* ``make_inputs()`` and ``warm_up()``: the set-up, timed as ``setup_s``;
* ``seed_of(i)``: op i's input seed, called before the op's timer starts;
* ``op(i)``: the timed operation, returning what ``check`` needs;
* ``probes``: callbacks that keep references to solver inputs and
  outputs during an op (see ``spans.Instrumentation``);
* ``check(i, out)``: correctness checks run after the op's timer stops;
  returns a list of problems, empty when the op is correct;
* ``quality(i, out)``: per-op quality values, deterministic for a seed;
* ``rows(out)``: (attempted, failed) counts for one op that returned;
  an op that raises counts ``rows_per_op`` failures.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import zlib

import numpy as np

import tensordg
from tensordg import (cli, completion, experiments, highdim, metrics,
                      simulate, tensor, transfer)

# Tolerances for the solver certificates: about ten times the largest
# residual measured on these workloads over two seeds (README.md lists the
# measurements); the simplex tolerance is a rounding-error bound.
SIMPLEX_TOL = 1e-12               # |sum(w) - 1| of the maximin weights
MAXIMIN_STATIONARITY_TOL = 2e-3   # relative gradient spread on the support
LASSO_KKT_TOL = 1e-7              # lasso_kkt of each tensortl offset
GROUP_LASSO_KKT_TOL = 2e-6        # group_lasso_kkt at the chosen lambda

WARMUP_SEED = 20230917


def op_seed(name, seed, i):
    """Input seed of op i: a hash of workload name, workload seed and i."""
    seq = np.random.SeedSequence([zlib.crc32(name.encode()), int(seed), i])
    return int(seq.generate_state(1)[0])


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float)))
               for a in arrays)


def tensor_drawable(scenario):
    """Whether simulate can draw the truth tensor of a scenario config."""
    try:
        simulate.generate_tensor(simulate.ScenarioConfig.from_dict(scenario))
    except RuntimeError:
        return False
    return True


def digest(ds):
    """Hash of a dataset's arrays, for the determinism test."""
    h = hashlib.sha256()
    for g in sorted(ds.groups):
        X, y = ds.groups[g]
        h.update(repr(g).encode())
        h.update(X.tobytes())
        h.update(y.tobytes())
    return h.hexdigest()


def _fiber(arr, g):
    return arr[(slice(None),) + tuple(i - 1 for i in g)]


class Workload:
    name = ""
    quality_ops = 1      # quality and work counts cover ops 0..quality_ops-1
    rows_per_op = 1

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.captured = []
        self.probes = {}
        self.seeds = []
        self.skipped = 0

    def seed_of(self, i):
        """Input seed of op i, skipping seeds the simulator cannot draw."""
        while len(self.seeds) <= i:
            s = op_seed(self.name, self.seed, len(self.seeds) + self.skipped)
            if self.drawable(s):
                self.seeds.append(s)
            else:
                self.skipped += 1
        return self.seeds[i]

    def drawable(self, seed):
        return True

    def make_inputs(self):
        pass

    def fingerprint(self, i):
        """Digest of op i's input data, for the determinism test."""
        raise NotImplementedError

    def rows(self, out):
        return self.rows_per_op, 0


def _capture(store, tag):
    def probe(args, kwargs, result):
        store.append((tag, args, result))
    return probe


def maximin_problems(estimates, pooled, weights):
    """Simplex feasibility and stationarity of a maximin solution."""
    order = sorted(estimates.tilde)
    basis = np.column_stack([estimates.tilde[g].coef for g in order])
    gram = basis.T @ pooled @ basis
    grad = (gram + gram.T) @ weights
    problems = []
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > SIMPLEX_TOL:
        problems.append(f"maximin weights off the simplex "
                        f"(min {weights.min():.3g}, sum {weights.sum()!r})")
    support = weights > 0.0
    spread = (grad[support].max() - grad.min()) / np.abs(grad).max()
    if not spread <= MAXIMIN_STATIONARITY_TOL:
        problems.append(f"maximin not stationary: spread {spread:.3g}")
    return problems


def tensortl_problems(args, result):
    model, g_star, X, y = args[:4]
    res = transfer.lasso_kkt(X, y, model.coefficient(g_star),
                             result.delta_hat, result.lambda_used)
    if not res <= LASSO_KKT_TOL:
        return [f"tensortl offset for {g_star}: lasso KKT residual {res:.3g}"]
    return []


# ---------------------------------------------------------------- mc_reference

MC_METHODS = ("tensordg", "tensortl", "ols", "maximin", "metalm")
MC_SCENARIO = {"n_target": 150, "delta_sparsity": 3}


class McReference(Workload):
    """The paper's Monte Carlo battery: one replication of all five methods
    on the reference design, then the metrics CSV."""

    name = "mc_reference"
    quality_ops = 10
    rows_per_op = len(MC_METHODS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.csv_path = os.path.join(workdir, "metrics.csv")
        self.probes = {name: _capture(self.captured, name) for name in (
            "completion.fit_tensordg", "baselines.maximin",
            "transfer.tensortl")}

    def drawable(self, seed):
        return tensor_drawable(dict(MC_SCENARIO, seed=seed))

    def config(self, seed):
        return experiments.ExperimentConfig(
            name=self.name, methods=MC_METHODS, replications=1, seed=seed,
            workers=1, scenario=MC_SCENARIO)

    def run(self, seed):
        records = experiments.run_experiment(self.config(seed))
        experiments.write_metrics_csv(self.csv_path, records)
        return records

    def warm_up(self):
        self.run(WARMUP_SEED)

    def op(self, i):
        return self.run(self.seed_of(i))

    def rows(self, records):
        return len(records), sum(r.failed for r in records)

    def check(self, i, records):
        problems = []
        if [r.method for r in records] != list(MC_METHODS):
            problems.append(f"methods {[r.method for r in records]}")
        for r in records:
            if not r.failed and not _finite(r.al2e, r.adge, r.tle):
                problems.append(f"{r.method}: non-finite metrics")
        with open(self.csv_path, newline="") as handle:
            header = handle.readline().rstrip("\r\n").split(",")
        if header != experiments.CSV_HEADER:
            problems.append(f"metrics CSV header {header}")
        for tag, args, result in self.captured:
            if tag == "baselines.maximin":
                problems += maximin_problems(args[0], args[1], result[1])
            elif tag == "transfer.tensortl":
                problems += tensortl_problems(args, result)
        return problems

    def quality(self, i, records):
        by = {r.method: r for r in records}
        ranks = [res.ranks for tag, _, res in self.captured
                 if tag == "completion.fit_tensordg"]
        truth = simulate.ScenarioConfig.from_dict(MC_SCENARIO).ranks
        return {"adge": by["tensordg"].adge, "tle": by["tensortl"].tle,
                "rank_hit": float(bool(ranks) and ranks[0] == truth)}

    def fingerprint(self, i):
        cfg = self.config(self.seed_of(i)).cells()[0][1]
        return digest(simulate.make_scenario(cfg, 0).train)


# ---------------------------------------------------------------- fit_q3

Q3_SCENARIO = dict(q=3, p=80, group_dims=(6, 6, 6), ranks=(6, 2, 2, 2),
                   body_sizes=(4, 4, 4), arm_sizes=(3, 3, 3), n=200,
                   n_target=2)   # target samples are unused here
Q3_POOL = 6


class FitQ3(Workload):
    """One large practitioner fit: order-4 tensor, 2-tuple arms, 118
    observed groups. Runs no baselines, transfer or highdim code."""

    name = "fit_q3"
    quality_ops = Q3_POOL

    def drawable(self, seed):
        return tensor_drawable(dict(Q3_SCENARIO, seed=seed))

    def scenario(self, seed):
        cfg = simulate.ScenarioConfig(seed=seed, **Q3_SCENARIO)
        sc = simulate.make_scenario(cfg, 0)
        return sc.train, sc.pattern, sc.truth

    def make_inputs(self):
        self.pool = None    # set-up repeats must not hold two pools at once
        self.pool = [self.scenario(self.seed_of(k)) for k in range(Q3_POOL)]

    def warm_up(self):
        train, pattern, _ = self.scenario(WARMUP_SEED)
        completion.fit_tensordg(train, pattern)

    def op(self, i):
        train, pattern, _ = self.pool[i % Q3_POOL]
        return completion.fit_tensordg(train, pattern)

    def check(self, i, model):
        truth = self.pool[i % Q3_POOL][2]
        problems = []
        if model.tensor.dims != truth.dims:
            problems.append(f"tensor dims {model.tensor.dims}")
        if not _finite(model.tensor.array):
            problems.append("non-finite completed tensor")
        return problems

    def quality(self, i, model):
        _, pattern, truth = self.pool[i % Q3_POOL]
        return {"adge": metrics.adge(model.tensor, truth, pattern),
                "rank_hit": float(model.ranks == Q3_SCENARIO["ranks"])}

    def fingerprint(self, i):
        return digest(self.pool[i % Q3_POOL][0])


# ---------------------------------------------------------------- highdim_path

HD_CORE = dict(p=6, group_dims=(4, 4), ranks=(3, 2, 2), body_sizes=(3, 3),
               arm_sizes=(2, 2), signal_scale=6.0)
HD_P = 150
HD_N = 50
HD_POOL = 12
# The draw with the median iteration count among problem seeds 0-8 at the
# commit that added the benchmark (5.3k ISTA iterations per op; the range
# was 3.4k to 12.0k).
HD_PROBLEM_SEED = 3
HD_WARMUP_LAMBDA = 8      # index into the 20-point lambda grid


def highdim_problem():
    """The fixed problem: a planted sparse truth and the group designs.

    The truth is simulate's Tucker draw on 6 of 150 rows. Problem and
    designs are the same for every seed; the workload seed draws the
    noise. The number of ISTA iterations on the lambda path depends mostly
    on the problem: it varies about 30% between drawn truths, 13% between
    designs for one truth and 7% between noise draws. With a fixed problem
    the run-to-run spread stays a property of the code.
    Returns (pattern, full truth array, planted support, designs).
    """
    cfg = simulate.ScenarioConfig(seed=HD_PROBLEM_SEED, **HD_CORE)
    small = simulate.generate_tensor(cfg, 0)
    pattern = simulate.default_pattern(cfg)
    rng = np.random.default_rng(HD_PROBLEM_SEED)
    support = tuple(sorted(int(j) for j in
                           rng.choice(HD_P, HD_CORE["p"], replace=False)))
    full = np.zeros((HD_P,) + HD_CORE["group_dims"])
    full[list(support)] = small.array
    designs = {g: rng.normal(size=(HD_N, HD_P))
               for g in pattern.observed_list()}
    return pattern, full, support, designs


def highdim_input(problem, seed):
    """Noisy responses of every observed group for one noise seed."""
    _, full, _, designs = problem
    rng = np.random.default_rng(seed)
    return tensordg.GroupedDataset({
        g: (X, X @ _fiber(full, g) + rng.normal(size=HD_N))
        for g, X in designs.items()})


class HighdimPath(Workload):
    """Group-lasso front end with lambda chosen on a warm-started ISTA
    path; p=150 > n=50 per group, fixed problem, fresh noise per op."""

    name = "highdim_path"
    quality_ops = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.probes = {"highdim.group_lasso":
                       _capture(self.captured, "highdim.group_lasso")}

    def make_inputs(self):
        self.problem = highdim_problem()
        self.pool = [highdim_input(self.problem, self.seed_of(k))
                     for k in range(HD_POOL)]

    def warm_up(self):
        # The same code and shapes as an op, at one fixed lambda instead of
        # the whole path, so that five set-ups stay short.
        ds = highdim_input(self.problem, WARMUP_SEED)
        highdim.fit_highdim(ds, self.problem[0],
                            lam=highdim.lambda_grid(ds)[HD_WARMUP_LAMBDA])

    def op(self, i):
        return highdim.fit_highdim(self.pool[i % HD_POOL], self.problem[0])

    def check(self, i, model):
        ds = self.pool[i % HD_POOL]
        support = model.diagnostics["support"]
        lam = model.diagnostics["lambda"]
        problems = []
        off = np.ones(HD_P, dtype=bool)
        off[list(support)] = False
        if np.any(model.tensor.array[off] != 0.0):
            problems.append("nonzero rows off the selected support")
        if not _finite(model.tensor.array):
            problems.append("non-finite completed tensor")
        final = [result for _, args, result in self.captured
                 if args[0] is ds and args[1] == lam]
        if not final:
            problems.append("no group-lasso fit at the chosen lambda")
        else:
            res = highdim.group_lasso_kkt(ds, final[-1], lam)
            if not res <= GROUP_LASSO_KKT_TOL:
                problems.append(f"group lasso KKT residual {res:.3g}")
        return problems

    def quality(self, i, model):
        pattern, truth, support, _ = self.problem
        return {"adge": metrics.adge(model.tensor, truth, pattern),
                "rank_hit": float(model.ranks == HD_CORE["ranks"]),
                "support_hit": float(tuple(model.diagnostics["support"])
                                     == support)}

    def fingerprint(self, i):
        return digest(self.pool[i % HD_POOL])


# ---------------------------------------------------------------- cli_pipeline

CLI_SCENARIO = {"n": 150, "n_target": 150, "delta_sparsity": 3}
# The warm-up runs the same three commands on a small design.
CLI_WARMUP = {"p": 8, "group_dims": [5, 4], "ranks": [3, 2, 2],
              "body_sizes": [4, 4], "arm_sizes": [2, 2], "n": 40,
              "n_target": 40, "delta_sparsity": 2}


class CliPipeline(Workload):
    """The command line end to end: simulate, fit --out, transfer --cv.
    CSV write and ingest, model save and load and CV transfer dominate."""

    name = "cli_pipeline"
    quality_ops = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out_dir = os.path.join(workdir, "cli")
        self.configs = {}

    def make_inputs(self):
        for label, scenario in (("op", CLI_SCENARIO), ("warmup", CLI_WARMUP)):
            path = os.path.join(self.workdir, f"{label}.json")
            with open(path, "w") as handle:
                json.dump(scenario, handle)
            unseen = simulate.default_pattern(
                simulate.ScenarioConfig.from_dict(scenario)).unobserved_list()
            self.configs[label] = (path, unseen)

    def drawable(self, seed):
        return tensor_drawable(dict(CLI_SCENARIO, seed=seed))

    def paths(self, g):
        d = self.out_dir
        return {"data": f"{d}/sim_data.csv",
                "pattern": f"{d}/sim_pattern.json",
                "truth": f"{d}/sim_truth.tns", "model": f"{d}/model.tns",
                "report": f"{d}/transfer.json",
                "target": f"{d}/sim_target_{'-'.join(map(str, g))}.csv"}

    def target(self, label, seed):
        unseen = self.configs[label][1]
        return unseen[seed % len(unseen)]

    def run(self, label, seed):
        """simulate, fit and transfer for one unseen group; returns it."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        g = self.target(label, seed)
        p = self.paths(g)
        steps = [
            ["simulate", "--config", self.configs[label][0], "--out-dir",
             self.out_dir, "--seed", str(seed), "--with-targets"],
            ["fit", "--data", p["data"], "--pattern", p["pattern"],
             "--out", p["model"]],
            ["transfer", "--model", p["model"], "--target-group",
             ",".join(map(str, g)), "--data", p["target"], "--cv",
             "--out", p["report"]],
        ]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in steps:
                if cli.main(argv) != 0:
                    raise RuntimeError(f"tensordg {argv[0]} failed: "
                                       f"{log.getvalue().strip()[-300:]}")
        return seed

    def warm_up(self):
        self.run("warmup", WARMUP_SEED)

    def op(self, i):
        return self.run("op", self.seed_of(i))

    def load(self, seed):
        g = self.target("op", seed)
        p = self.paths(g)
        with open(p["report"]) as handle:
            report = json.load(handle)
        return g, p, report, completion.load_model(p["model"])

    def check(self, i, seed):
        g, _, report, model = self.load(seed)
        gamma = np.array(report["gamma_hat"])
        delta = np.array(report["delta_hat"])
        problems = []
        if not _finite(gamma, delta, model.tensor.array):
            problems.append("non-finite model or transfer output")
        if not np.array_equal(gamma, model.coefficient(g) + delta):
            problems.append("gamma_hat != model fiber + delta_hat")
        return problems

    def quality(self, i, seed):
        g, p, report, model = self.load(seed)
        cfg = simulate.ScenarioConfig.from_dict(dict(CLI_SCENARIO, seed=seed))
        scenario = simulate.make_scenario(cfg, 0)
        truth = tensor.load_tensor(p["truth"])
        return {"adge": metrics.adge(model.tensor, truth, scenario.pattern),
                "rank_hit": float(model.ranks == cfg.ranks),
                "tle": metrics.tle(report["gamma_hat"], scenario.gammas[g])}

    def fingerprint(self, i):
        cfg = simulate.ScenarioConfig.from_dict(
            dict(CLI_SCENARIO, seed=self.seed_of(i)))
        return digest(simulate.make_scenario(cfg, 0).train)


WORKLOADS = {w.name: w for w in (McReference, FitQ3, HighdimPath, CliPipeline)}
