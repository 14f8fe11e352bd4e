"""Command line interface.

Subcommands:

* ``simulate``: generate one replication of a scenario config and write
  the dataset CSV, the observation-pattern JSON, and the truth tensor.
* ``fit``: fit the completion estimator on a dataset CSV plus pattern
  JSON, optionally with the sparse high-dimensional front end. Every
  mode's rank comes from the one noise-floor rule; there is no option
  for it.
* ``transfer``: sparse-offset transfer fit for one target group from a
  saved model and a target sample CSV.
* ``experiment``: run a Monte Carlo sweep config and write the metrics
  CSV (``cell_param,cell_value,rep,method,al2e,adge,tle,failed,seconds``).
  A config sweeps one scenario field over its ``values``; a config with
  a bad value is an error before any replication runs. The paper's
  eight runs are the configs in ``configs/``; ``--reps``, ``--seed`` and
  ``--workers`` override a config's values.
* ``ingest``: parse a dataset CSV and report the inferred group space,
  per-group counts, and level mappings.
"""

import argparse
import dataclasses
import json
import re
import sys

from .completion import fit_tensordg, load_model, save_model
from .datasets import ingest_csv, write_csv
from .experiments import (ExperimentConfig, run_experiment, summarize,
                          write_metrics_csv)
from .highdim import fit_highdim
from .patterns import load_pattern, save_pattern
from .regression import GroupedDataset
from .simulate import ScenarioConfig, make_scenario
from .tensor import save_tensor
from .transfer import DEFAULT_C0, tensortl

__all__ = ["main"]


def _group_tuple(text):
    parts = [part for part in re.split(r"[,\s]+", text.strip()) if part]
    if not parts:
        raise ValueError("empty group index")
    return tuple(int(part) for part in parts)


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _fmt_group(g):
    return "(" + ",".join(str(i) for i in g) + ")"


def cmd_simulate(args):
    cfg_dict = _load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = ScenarioConfig.from_dict(cfg_dict)
    scenario = make_scenario(cfg, rep=args.rep)
    prefix = f"{args.out_dir}/{args.prefix}"

    data_path = f"{prefix}_data.csv"
    pattern_path = f"{prefix}_pattern.json"
    truth_path = f"{prefix}_truth.tns"
    write_csv(data_path, scenario.train)
    save_pattern(scenario.pattern, pattern_path)
    save_tensor(scenario.truth, truth_path)
    written = [data_path, pattern_path, truth_path]
    if args.with_targets:
        for g in sorted(scenario.targets):
            X, y = scenario.targets[g]
            path = f"{prefix}_target_{'-'.join(str(i) for i in g)}.csv"
            write_csv(path, GroupedDataset({g: (X, y)}))
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_fit(args):
    ds = ingest_csv(args.data).dataset
    pattern = load_pattern(args.pattern)
    if args.highdim:
        lam = None if args.lam in (None, "auto") else float(args.lam)
        model = fit_highdim(ds, pattern, lam=lam, seed=args.seed)
    else:
        if args.lam is not None:
            raise ValueError("--lambda requires --highdim")
        model = fit_tensordg(ds, pattern)
    diag = model.diagnostics
    print(f"ranks: {','.join(str(r) for r in model.ranks)}")
    print(f"generalizability: "
          f"{'consistent' if diag['generalizability']['consistent'] else 'inconsistent'}")
    if args.highdim:
        print(f"support size: {len(diag['support'])} "
              f"(lambda={diag['lambda']:.6g})")
    for warning in diag["warnings"]:
        print(f"warning: {warning}")
    if args.out:
        save_model(model, args.out)
        print(f"wrote {args.out} and {args.out}.json")
    return 0


def cmd_transfer(args):
    model = load_model(args.model)
    g_star = _group_tuple(args.target_group)
    ds = ingest_csv(args.data).dataset
    if g_star in ds.groups:
        X, y = ds.groups[g_star]
    elif len(ds.groups) == 1:
        (g_file, (X, y)), = ds.groups.items()
        print(f"note: file group {_fmt_group(g_file)} supplies the sample "
              f"for target {_fmt_group(g_star)}")
    else:
        raise ValueError(
            f"target group {_fmt_group(g_star)} not in the data; file has "
            f"groups {sorted(ds.groups)}")
    res = tensortl(model, g_star, X, y, lam=args.lam, cv=args.cv,
                   seed=args.seed)
    print(f"lambda: {res.lambda_used:.6g}")
    print(f"offset support size: {len(res.support)}")
    print(f"offset norm: {float((res.delta_hat ** 2).sum()) ** 0.5:.6g}")
    if args.out:
        report = {"target_group": list(g_star),
                  "gamma_hat": [float(v) for v in res.gamma_hat],
                  "delta_hat": [float(v) for v in res.delta_hat],
                  "lambda": float(res.lambda_used),
                  "support": [int(j) for j in res.support]}
        with open(args.out, "w") as handle:
            json.dump(report, handle)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_experiment(args):
    cfg = ExperimentConfig.from_dict(_load_json(args.config))
    flags = {"replications": args.reps, "seed": args.seed,
             "workers": args.workers}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items()
                                      if v is not None})
    records = run_experiment(cfg)
    summaries = summarize(records)
    write_metrics_csv(args.out, records + ([] if args.no_summaries
                                           else summaries), summaries=False)
    for row in summaries:
        if row.rep != "mean":
            continue
        cell = f"{row.cell_param}={row.cell_value}" if row.cell_value \
            else row.cell_param
        al2e, adge, tle = ("nan" if v is None else f"{v:.4f}"
                           for v in (row.al2e, row.adge, row.tle))
        print(f"{cell} {row.method}: mean_al2e={al2e} mean_adge={adge} "
              f"mean_tle={tle} failed={row.failed}")
    print(f"wrote {args.out}")
    return 0


def cmd_ingest(args):
    def cols(text):
        return None if text is None else [c.strip()
                                          for c in text.split(",")]

    result = ingest_csv(args.data, group_cols=cols(args.group_cols),
                        response_col=args.response_col,
                        feature_cols=cols(args.feature_cols))
    total = sum(result.counts.values())
    print(f"space: {'x'.join(str(d) for d in result.space)}")
    print(f"rows: {total}  groups: {len(result.counts)}  "
          f"features: {result.dataset.p}")
    for g in sorted(result.counts):
        print(f"group {_fmt_group(g)}: {result.counts[g]} rows")
    for axis, mapping in enumerate(result.mappings, start=1):
        if any(str(code) != level for level, code in mapping.items()):
            pairs = ", ".join(f"{level!r}->{code}"
                              for level, code in mapping.items())
            print(f"axis {axis} levels: {pairs}")
    if args.out:
        report = {"space": list(result.space),
                  "rows": total,
                  "features": result.dataset.p,
                  "groups": [{"group": list(g), "count": result.counts[g]}
                             for g in sorted(result.counts)],
                  "mappings": [dict(m) for m in result.mappings]}
        with open(args.out, "w") as handle:
            json.dump(report, handle)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensordg",
        description="Structured tensor completion for multi-environment "
                    "regression: fit, transfer, simulate, experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="write one replication of a scenario config")
    sim.add_argument("--config", required=True,
                     help="scenario config JSON")
    sim.add_argument("--out-dir", required=True,
                     help="directory for the output files")
    sim.add_argument("--prefix", default="sim",
                     help="output file prefix (default: sim)")
    sim.add_argument("--rep", type=int, default=0,
                     help="replication index (default: 0)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--with-targets", action="store_true",
                     help="also write one CSV per unobserved group")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit the completion estimator "
                         "(ranks by the noise-floor rule)")
    fit.add_argument("--data", required=True, help="dataset CSV")
    fit.add_argument("--pattern", required=True,
                     help="observation pattern JSON")
    fit.add_argument("--seed", type=int, default=0,
                     help="seed for the --highdim lambda holdout")
    fit.add_argument("--highdim", action="store_true",
                     help="group-lasso support selection before completion")
    fit.add_argument("--lambda", dest="lam", default=None,
                     help="group-lasso penalty, a number or 'auto'")
    fit.add_argument("--out", default=None,
                     help="write the model here (plus a .json sidecar)")
    fit.set_defaults(func=cmd_fit)

    tra = sub.add_parser("transfer",
                         help="sparse-offset transfer for one target group")
    tra.add_argument("--model", required=True,
                     help="model file written by fit --out")
    tra.add_argument("--target-group", required=True,
                     help="comma-separated 1-based group levels, "
                          "e.g. \"2,7\"")
    tra.add_argument("--data", required=True, help="target sample CSV")
    lam_group = tra.add_mutually_exclusive_group()
    lam_group.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="offset penalty (default: "
                                f"{DEFAULT_C0}*sqrt(log(p)/n))")
    lam_group.add_argument("--cv", action="store_true",
                           help="pick the penalty by 5-fold cross "
                                "validation")
    tra.add_argument("--seed", type=int, default=0,
                     help="cross-validation fold seed")
    tra.add_argument("--out", default=None, help="write a JSON report here")
    tra.set_defaults(func=cmd_transfer)

    exp = sub.add_parser("experiment", help="run a Monte Carlo sweep")
    exp.add_argument("--config", required=True,
                     help="experiment config JSON")
    exp.add_argument("--out", required=True, help="metrics CSV path")
    exp.add_argument("--reps", type=int, default=None,
                     help="override the config replication count")
    exp.add_argument("--workers", type=int, default=None,
                     help="override the config worker count")
    exp.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    exp.add_argument("--no-summaries", action="store_true",
                     help="omit the mean/se summary rows")
    exp.set_defaults(func=cmd_experiment)

    ing = sub.add_parser("ingest",
                         help="inspect a dataset CSV and its group space")
    ing.add_argument("--data", required=True, help="dataset CSV")
    ing.add_argument("--group-cols", default=None,
                     help="comma-separated group column names")
    ing.add_argument("--response-col", default=None,
                     help="response column name")
    ing.add_argument("--feature-cols", default=None,
                     help="comma-separated feature column names")
    ing.add_argument("--out", default=None, help="write a JSON report here")
    ing.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
