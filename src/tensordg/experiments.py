"""Monte Carlo experiment harness.

A run is a grid of cells (one swept scenario parameter) times
replications times methods. Every method is scored on the same three
metrics per replication:

* ``al2e``: coefficient error over every group combination,
* ``adge``: coefficient error over the unobserved combinations,
* ``tle``: mean Euclidean error of the per-target coefficient against
  the target truth (which includes any sparse transfer shift).

Each method yields a full coefficient tensor and per-target vectors:

* ``tensordg``: the completed tensor; targets read off the tensor.
* ``tensortl``: completed tensor with every unobserved fiber replaced
  by the sparse-offset transfer fit on that group's target sample.
* ``ols``: per-group least squares; unobserved groups use their own
  target samples (the data-rich single-task reference).
* ``maximin``: the worst-case-optimal convex combination of the
  observed-group fits, used for every combination.
* ``metalm``: shared-subspace regression per unobserved group on its
  target sample; observed groups keep their own fits. The subspace is
  learned from the sources once per replication.

Failures are isolated: a replication that raises records failed=1 rows
for the affected methods and the run continues. Records are merged in a
deterministic order (cell, replication, method), so serial and parallel
runs produce identical tables; only the seconds column varies between
runs.
"""

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import maximin, pooled_gram, projected_ols, shared_subspace
from .completion import fit_tensordg
from .metrics import adge, al2e, tle
from .regression import fit_all, ols_fit
from .simulate import ScenarioConfig, make_scenario
from .tensor import DenseTensor
from .transfer import tensortl

__all__ = ["ExperimentConfig", "MetricsRecord", "run_experiment",
           "write_metrics_csv", "summarize", "CSV_HEADER"]

CSV_HEADER = ["cell_param", "cell_value", "rep", "method", "al2e", "adge",
              "tle", "failed", "seconds"]
KNOWN_METHODS = ("tensordg", "tensortl", "ols", "maximin", "metalm")
SWEEPS = ("default", "rank", "arm", "body")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a sweep, a method list, and a scenario base."""

    name: str = "experiment"
    sweep: str = "default"          # default | rank | arm | body
    values: tuple = ()              # swept values; ignored for default
    methods: tuple = ("tensordg", "ols")
    replications: int = 100
    seed: int = 0
    workers: int = 1
    scenario: dict = None           # ScenarioConfig field overrides

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "scenario", dict(self.scenario or {}))
        if self.sweep not in SWEEPS:
            raise ValueError(f"unknown sweep {self.sweep!r}")
        if self.sweep != "default" and not self.values:
            raise ValueError(f"sweep {self.sweep!r} needs values")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}")
        if not self.methods:
            raise ValueError("method list is empty")
        if self.replications < 1 or self.workers < 1:
            raise ValueError("replications and workers must be positive")

    def to_dict(self):
        return {"name": self.name, "sweep": self.sweep,
                "values": list(self.values), "methods": list(self.methods),
                "replications": self.replications, "seed": self.seed,
                "workers": self.workers, "scenario": dict(self.scenario)}

    @classmethod
    def from_dict(cls, cfg):
        known = {k: v for k, v in cfg.items() if k in cls.__dataclass_fields__}
        unknown = set(cfg) - set(known)
        if unknown:
            raise ValueError(f"unknown experiment fields {sorted(unknown)}")
        return cls(**known)

    def cells(self):
        """(cell_value, ScenarioConfig) per cell, in declared order."""
        base = dict(self.scenario)
        base["seed"] = self.seed
        base.setdefault("replications", self.replications)
        if self.sweep == "default":
            return [("", ScenarioConfig.from_dict(base))]
        out = []
        for v in self.values:
            v = int(v)
            cfg = dict(base)
            probe = ScenarioConfig.from_dict(base)
            if self.sweep == "rank":
                cfg["ranks"] = (2 * v,) + (v,) * probe.q
            elif self.sweep == "arm":
                cfg["arm_sizes"] = (v,) * probe.q
            else:
                cfg["body_sizes"] = (v,) * probe.q
            out.append((str(v), ScenarioConfig.from_dict(cfg)))
        return out


@dataclass(frozen=True)
class MetricsRecord:
    """One CSV row; metrics are None when the replication failed.

    ``rep`` is the replication index, or "mean" / "se" for a summary row.
    """

    cell_param: str
    cell_value: str
    rep: int
    method: str
    al2e: float = None
    adge: float = None
    tle: float = None
    failed: int = 0
    seconds: float = 0.0

    def row(self):
        def fmt(v):
            return "" if v is None else repr(float(v))
        return [self.cell_param, self.cell_value, str(self.rep), self.method,
                fmt(self.al2e), fmt(self.adge), fmt(self.tle),
                str(self.failed), fmt(self.seconds)]


def _score(method, tensor, targets_hat, scenario):
    """Build the three metrics for one method's answers."""
    truth = scenario.truth
    pattern = scenario.pattern
    gammas = scenario.gammas
    tle_vals = [tle(targets_hat[g], gammas[g]) for g in sorted(gammas)]
    return (al2e(tensor, truth), adge(tensor, truth, pattern),
            float(np.mean(tle_vals)) if tle_vals else None)


def _ols_tensor(scenario, est):
    """Per-group OLS everywhere: train fits observed, target fits unseen."""
    p = scenario.truth.dims[0]
    arr = np.zeros(scenario.truth.dims)
    targets_hat = {}
    for g in scenario.pattern.observed_list():
        arr[(slice(None),) + tuple(i - 1 for i in g)] = est.ring[g].coef
    for g, (X, y) in scenario.targets.items():
        coef = ols_fit(X, y)[0]
        arr[(slice(None),) + tuple(i - 1 for i in g)] = coef
        targets_hat[g] = coef
    return DenseTensor(arr), targets_hat


def _evaluate_cell_rep(cell_param, cell_value, scenario_cfg, rep, methods):
    """All method records for one replication of one cell."""
    records = []
    try:
        scenario = make_scenario(scenario_cfg, rep)
    except Exception:
        return [MetricsRecord(cell_param, cell_value, rep, m, failed=1)
                for m in methods]

    shared = {}

    def tensordg_model():
        if "model" not in shared:
            shared["model"] = fit_tensordg(scenario.train, scenario.pattern)
        return shared["model"]

    def train_est():
        if "est" not in shared:
            shared["est"] = fit_all(scenario.train, scenario.pattern)
        return shared["est"]

    for method in methods:
        start = time.perf_counter()
        try:
            if method == "tensordg":
                model = tensordg_model()
                targets_hat = {g: model.coefficient(g)
                               for g in scenario.targets}
                metrics = _score(method, model.tensor, targets_hat, scenario)
            elif method == "tensortl":
                model = tensordg_model()
                arr = np.array(model.tensor.array)
                targets_hat = {}
                for g, (X, y) in sorted(scenario.targets.items()):
                    res = tensortl(model, g, X, y)
                    arr[(slice(None),) + tuple(i - 1 for i in g)] = \
                        res.gamma_hat
                    targets_hat[g] = res.gamma_hat
                metrics = _score(method, DenseTensor(arr), targets_hat,
                                 scenario)
            elif method == "ols":
                tensor, targets_hat = _ols_tensor(scenario, train_est())
                metrics = _score(method, tensor, targets_hat, scenario)
            elif method == "maximin":
                coef, _ = maximin(train_est(), pooled_gram(scenario.train))
                arr = np.broadcast_to(
                    coef.reshape((-1,) + (1,) * scenario.pattern.q),
                    scenario.truth.dims)
                targets_hat = {g: coef for g in scenario.targets}
                metrics = _score(method, DenseTensor(np.array(arr)),
                                 targets_hat, scenario)
            elif method == "metalm":
                est = train_est()
                basis = shared_subspace(est, scenario.pattern)
                arr = np.zeros(scenario.truth.dims)
                for g in scenario.pattern.observed_list():
                    arr[(slice(None),) + tuple(i - 1 for i in g)] = \
                        est.ring[g].coef
                targets_hat = {}
                for g, (X, y) in sorted(scenario.targets.items()):
                    coef = projected_ols(basis, X, y)
                    arr[(slice(None),) + tuple(i - 1 for i in g)] = coef
                    targets_hat[g] = coef
                metrics = _score(method, DenseTensor(arr), targets_hat,
                                 scenario)
            else:  # pragma: no cover - guarded by ExperimentConfig
                raise ValueError(f"unknown method {method}")
            seconds = time.perf_counter() - start
            records.append(MetricsRecord(cell_param, cell_value, rep, method,
                                         *metrics, 0, seconds))
        except Exception:
            seconds = time.perf_counter() - start
            records.append(MetricsRecord(cell_param, cell_value, rep, method,
                                         failed=1, seconds=seconds))
    return records


def run_experiment(cfg):
    """Execute every cell x replication x method; returns sorted records.

    With workers > 1 the replications run in a process pool; the merge
    order is fixed by (cell order, replication, method order), so the
    result is identical to a serial run.
    """
    jobs = []
    for cell_value, scenario_cfg in cfg.cells():
        for rep in range(cfg.replications):
            jobs.append((cfg.sweep, cell_value, scenario_cfg, rep,
                         cfg.methods))
    if cfg.workers == 1:
        batches = [_evaluate_cell_rep(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_evaluate_cell_rep, *job) for job in jobs]
            batches = [f.result() for f in futures]
    records = [rec for batch in batches for rec in batch]
    return records


def summarize(records):
    """Mean and standard-error rows per cell x method.

    Metrics aggregate over the successful replications only; the failed
    column carries the failure count, and seconds aggregates like the
    metrics.
    """
    order = []
    buckets = {}
    for rec in records:
        key = (rec.cell_param, rec.cell_value, rec.method)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(rec)

    def agg(vals, kind):
        vals = [v for v in vals if v is not None]
        if not vals:
            return None
        if kind == "mean":
            return float(np.mean(vals))
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    rows = []
    for key in order:
        group = buckets[key]
        good = [r for r in group if not r.failed]
        n_failed = sum(r.failed for r in group)
        for kind in ("mean", "se"):
            rows.append({
                "cell_param": key[0], "cell_value": key[1], "rep": kind,
                "method": key[2],
                "al2e": agg([r.al2e for r in good], kind),
                "adge": agg([r.adge for r in good], kind),
                "tle": agg([r.tle for r in good], kind),
                "failed": n_failed,
                "seconds": agg([r.seconds for r in good], kind),
            })
    return rows


def write_metrics_csv(path, records, summaries=True):
    """Write per-replication rows, then mean/se summary rows per cell."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.row())
        if summaries:
            for row in summarize(records):
                writer.writerow(MetricsRecord(**row).row())
