"""Per-layer metrics from a traced loop.

Names are ``<module>.<function>.<stat>``:

* ``self_s``: seconds per op spent in the function itself, that is its
  spans' durations minus the time their child spans cover; averaged over
  every traced op;
* ``calls``, ``iters``, ``bytes``: per op, averaged over the first
  ``quality_ops`` ops, so that the same seed gives the same numbers;
  ``iters`` are solver iterations, ``bytes`` the size of the CSV file
  written or read;
* ``errors``: exceptions that passed through the function, in total.

``linalg.<fn>.calls`` counts numpy.linalg calls per op (eigvalsh counts
as eigh). ``trace.overhead_frac`` compares the traced loop with the plain
one on the same ops.
"""

from collections import Counter

from spans import TRACED

CALLS = ("regression.fit_all", "regression.ols_fit", "spectral.mode_gram",
         "highdim.group_lasso", "transfer.lasso_offset")
ITERS = ("baselines.maximin", "highdim.group_lasso", "transfer.lasso_offset")
BYTES = ("datasets.write_csv", "datasets.ingest_csv")
ERRORS = ("simulate.make_scenario", "completion.fit_tensordg",
          "baselines.maximin", "baselines.meta_lm_star",
          "highdim.fit_highdim", "transfer.tensortl")
LINALG = ("inv", "eigh", "solve")

UNITS = {}
UNITS.update({f"{n}.self_s": "s" for n in TRACED})
UNITS.update({f"{n}.calls": "count" for n in CALLS})
UNITS.update({f"{n}.iters": "count" for n in ITERS})
UNITS.update({f"{n}.bytes": "B" for n in BYTES})
UNITS.update({f"{n}.errors": "count" for n in ERRORS})
UNITS.update({f"linalg.{n}.calls": "count" for n in LINALG})
UNITS["trace.overhead_frac"] = "ratio"


def summarize(tracer, n_ops, count_ops):
    """Per-layer metrics from the spans of ops 0..n_ops-1.

    Work counts cover ops 0..count_ops-1; spans recorded outside an op
    (op -1: checks and quality scoring) are left out.
    """
    own = tracer.self_times()
    self_s, calls, iters, nbytes, errors = (Counter() for _ in range(5))
    for span, self_time in zip(tracer.spans, own):
        op, name = span[2], span[3]
        if op < 0:
            continue
        self_s[name] += self_time
        errors[name] += span[8]
        if op < count_ops:
            calls[name] += 1
            iters[name] += span[6]
            nbytes[name] += span[7]
    linalg = Counter()
    for op in range(count_ops):
        linalg.update(tracer.linalg.get(op, {}))

    out = {}
    for n in TRACED:
        out[f"{n}.self_s"] = self_s[n] / n_ops
    for n in CALLS:
        out[f"{n}.calls"] = calls[n] / count_ops
    for n in ITERS:
        out[f"{n}.iters"] = iters[n] / count_ops
    for n in BYTES:
        out[f"{n}.bytes"] = nbytes[n] / count_ops
    for n in ERRORS:
        out[f"{n}.errors"] = errors[n]
    for n in LINALG:
        out[f"linalg.{n}.calls"] = linalg[n] / count_ops
    return out
