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
  observed-group fits, used for every combination. Its pooled Gram
  comes from the shared fit, so its seconds do not include forming it.
* ``metalm``: shared-subspace regression per unobserved group on its
  target sample; observed groups keep their own fits. The subspace is
  the completion fit's mode-0 basis, the same matrix
  ``baselines.meta_lm_star`` learns from the sources, so metalm shares
  the ``tensordg`` fit: a replication whose completion fit raises also
  records metalm as failed, and a method list with metalm but not
  tensordg still pays for the whole fit.

``METHODS`` maps each name to a function of one shared replication
context: each replication fits the observed groups once and all methods
share that fit (and ``tensordg``/``tensortl`` one completion fit). The
seconds column charges each shared stage to the first method that needs
it, so it depends on the method order.

The fit of the observed groups reads only their sufficient statistics,
so a replication draws those (``make_scenario(..., statistics=True)``:
X'X, X'y, the residual sum of squares and n per group, from their exact
joint law) and never the training rows; ``fit_all`` fits them in the
solve it uses for rows. Truth, shifts and target samples are drawn as
for rows. ``tensordg simulate`` still writes rows.

A sweep names one ScenarioConfig field and a cell per value; a tuple
value is labelled like ``4x2x2``. The paper's eight runs (method
comparison; ranks, arm, body, n and noise sweeps; transfer with and
without a sparse shift) are ``configs/*.json``, run by ``tensordg
experiment``.

Failures are isolated: a method that raises records a failed=1 row and
the run continues; a failed shared stage is retried by the next method
that needs it. Records are merged in a deterministic order (cell,
replication, method), so serial and parallel runs produce identical
tables; only the seconds column varies.
"""

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._threads import run_serially
from .baselines import maximin, projected_fits
from .completion import fit_tensordg
from .metrics import adge, al2e, tle
from .patterns import _integers
from .regression import fit_all, ols_fits
from .simulate import ScenarioConfig, default_pattern, make_scenario
from .tensor import DenseTensor
from .transfer import tensortl

__all__ = ["ExperimentConfig", "MetricsRecord", "run_experiment",
           "write_metrics_csv", "summarize", "CSV_HEADER"]

CSV_HEADER = ["cell_param", "cell_value", "rep", "method", "al2e", "adge",
              "tle", "failed", "seconds"]


def _tuple(value):
    """A JSON list as a tuple, so a config equals itself after JSON."""
    return tuple(value) if isinstance(value, list) else value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a sweep, a method list, and a scenario base."""

    name: str = "experiment"
    sweep: str = "default"          # default | ScenarioConfig field but seed
    values: tuple = ()              # the swept field's values
    methods: tuple = ("tensordg", "ols")
    replications: int = 100
    seed: int = 0
    workers: int = 1
    scenario: dict = None           # ScenarioConfig fields but seed

    def __post_init__(self):
        for name in ("replications", "seed", "workers"):
            value = getattr(self, name)
            object.__setattr__(self, name, _integers(
                (value,), f"{name} = {value!r}: values", name)[0])
        object.__setattr__(self, "values", tuple(map(_tuple, self.values)))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "scenario", {
            k: _tuple(v) for k, v in (self.scenario or {}).items()})
        if self.sweep == "seed" or self.sweep not in (
                "default", *ScenarioConfig.__dataclass_fields__):
            raise ValueError(f"unknown sweep {self.sweep!r}")
        if self.sweep != "default" and not self.values:
            raise ValueError(f"sweep {self.sweep!r} needs values")
        if self.sweep in self.scenario:
            raise ValueError(f"scenario sets the swept field {self.sweep!r}")
        if "seed" in self.scenario:
            raise ValueError("scenario sets 'seed', which belongs to the "
                             "experiment")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}")
        if not self.methods:
            raise ValueError("method list is empty")
        twice = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if twice:
            raise ValueError(f"methods {twice} listed twice: a method's "
                             f"rows would count as extra replications")
        if self.replications < 1 or self.workers < 1:
            raise ValueError("replications and workers must be positive")
        cells = self.cells()        # a bad swept value fails on load
        for i, (label, scenario) in enumerate(cells):
            cell = f"cell {self.sweep} = {label}" if label else "the scenario"
            for other, earlier in cells[:i]:
                if label == other or scenario == earlier:
                    raise ValueError(f"{cell} repeats cell {self.sweep} = "
                                     f"{other}: both run one scenario")
            if not default_pattern(scenario).unobserved_list():
                raise ValueError(f"{cell}: the pattern observes every "
                                 f"group, so adge has none to score")

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
        base = {**self.scenario, "seed": self.seed}
        if self.sweep == "default":
            return [("", ScenarioConfig.from_dict(base))]
        return [("x".join(map(str, v)) if isinstance(v, tuple) else str(v),
                 ScenarioConfig.from_dict({**base, self.sweep: v}))
                for v in self.values]


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


def _score(tensor, targets_hat, sc):
    """Build the three metrics for one method's answers."""
    tle_vals = [tle(targets_hat[g], sc.gammas[g]) for g in sorted(sc.gammas)]
    return (al2e(tensor, sc.truth), adge(tensor, sc.truth, sc.pattern),
            float(np.mean(tle_vals)) if tle_vals else None)


def _with_fibers(base, coefs):
    """Copy of the coefficient tensor base with each group's fiber set."""
    arr = np.array(base.array)
    for g, coef in coefs.items():
        arr[(slice(None),) + tuple(i - 1 for i in g)] = coef
    return DenseTensor(arr)


class _Replication:
    """One simulated draw and the stages its methods share, built lazily."""

    def __init__(self, scenario):
        self.scenario = scenario

    @cached_property
    def est(self):
        return fit_all(self.scenario.train, self.scenario.pattern)

    @cached_property
    def model(self):
        return fit_tensordg(self.est, self.scenario.pattern)

    @cached_property
    def observed(self):
        """Zero tensor with the observed fibers set to their OLS fits."""
        arr, seen = np.zeros(self.scenario.truth.dims), self.est.index >= 0
        arr[:, seen] = self.est.coef[self.est.index[seen]].T
        return DenseTensor(arr)


def _tensordg(ctx):
    return ctx.model.tensor, {g: ctx.model.coefficient(g)
                              for g in ctx.scenario.targets}


def _tensortl(ctx):
    targets_hat = {g: tensortl(ctx.model, g, X, y).gamma_hat
                   for g, (X, y) in sorted(ctx.scenario.targets.items())}
    return _with_fibers(ctx.model.tensor, targets_hat), targets_hat


def _ols(ctx):
    """Per-group OLS everywhere: train fits observed, target fits unseen,
    the targets in one ``ols_fits`` run."""
    targets = sorted(ctx.scenario.targets)
    coefs = ols_fits([ctx.scenario.targets[g] for g in targets], targets)[0]
    targets_hat = dict(zip(targets, coefs))
    return _with_fibers(ctx.observed, targets_hat), targets_hat


def _maximin(ctx):
    scenario = ctx.scenario
    coef, _ = maximin(ctx.est, ctx.est.pooled)
    arr = np.broadcast_to(coef.reshape((-1,) + (1,) * scenario.pattern.q),
                          scenario.truth.dims)
    return DenseTensor(np.array(arr)), {g: coef for g in scenario.targets}


def _metalm(ctx):
    targets_hat = projected_fits(ctx.model.bases[0], dict(sorted(
        ctx.scenario.targets.items())))
    return _with_fibers(ctx.observed, targets_hat), targets_hat


# method name -> function(_Replication) -> (coefficient tensor, targets_hat)
METHODS = {"tensordg": _tensordg, "tensortl": _tensortl, "ols": _ols,
           "maximin": _maximin, "metalm": _metalm}
KNOWN_METHODS = tuple(METHODS)


def _evaluate_cell_rep(cell_param, cell_value, scenario_cfg, rep, methods):
    """All method records for one replication of one cell."""
    try:
        ctx = _Replication(make_scenario(scenario_cfg, rep,
                                         statistics=True))
    except Exception:
        return [MetricsRecord(cell_param, cell_value, rep, m, failed=1)
                for m in methods]

    records = []
    for method in methods:
        start = time.perf_counter()
        try:
            metrics, failed = _score(*METHODS[method](ctx), ctx.scenario), 0
        except Exception:
            metrics, failed = (None, None, None), 1
        records.append(MetricsRecord(cell_param, cell_value, rep, method,
                                     *metrics, failed,
                                     time.perf_counter() - start))
    return records


def run_experiment(cfg):
    """Execute every cell x replication x method; returns sorted records.

    With workers > 1 the replications run in a process pool whose workers
    run the per-group stages serially, so the workers do not start threads
    of their own; the merge order is fixed by (cell order, replication,
    method order), so the result is identical to a serial run.
    """
    jobs = []
    for cell_value, scenario_cfg in cfg.cells():
        for rep in range(cfg.replications):
            jobs.append((cfg.sweep, cell_value, scenario_cfg, rep,
                         cfg.methods))
    if cfg.workers == 1:
        batches = [_evaluate_cell_rep(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 initializer=run_serially) as pool:
            futures = [pool.submit(_evaluate_cell_rep, *job) for job in jobs]
            batches = [f.result() for f in futures]
    records = [rec for batch in batches for rec in batch]
    return records


def summarize(records):
    """Mean and standard-error records per cell x method, ``rep`` set to
    "mean" or "se".

    Metrics aggregate over the successful replications only; ``failed``
    carries the failure count, and seconds aggregates like the metrics.
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
    for cell_param, cell_value, method in order:
        group = buckets[cell_param, cell_value, method]
        good = [r for r in group if not r.failed]
        n_failed = sum(r.failed for r in group)
        for kind in ("mean", "se"):
            rows.append(MetricsRecord(
                cell_param, cell_value, kind, method,
                agg([r.al2e for r in good], kind),
                agg([r.adge for r in good], kind),
                agg([r.tle for r in good], kind),
                n_failed, agg([r.seconds for r in good], kind)))
    return rows


def write_metrics_csv(path, records, summaries=True):
    """Write per-replication rows, then mean/se summary rows per cell."""
    if summaries:
        records = records + summarize(records)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(rec.row() for rec in records)
