"""Function-boundary instrumentation for the benchmark.

The benchmark never edits the package. It replaces functions at their
module boundary instead: every ``tensordg`` namespace that holds a given
function object (the defining module, the package root and every module
that imported it by name) gets the same wrapper, so calls through any of
those names are seen. Leaving the ``Instrumentation`` context puts the
originals back.

A wrapper can do two things:

* record a span (name, start, end, parent span, op id) when a
  :class:`Tracer` is attached, and flag the spans that an exception
  passed through;
* hand the call's arguments and result to a probe callback. Probes only
  keep references; the workloads check what they kept after the op's
  timer has stopped, so checking costs no measured time.

``numpy.linalg`` functions are counted, not timed, so a module's self time
still includes the dense linear algebra it asks for.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Functions timed as spans in a traced run, as "<module>.<function>".
TRACED = (
    "simulate.make_scenario",
    "regression.fit_all", "regression.ols_fit",
    "spectral.spectral_step", "spectral.mode_gram",
    "completion.fit_tensordg", "completion.estimate_loading",
    "completion.diagnose_generalizability", "completion.save_model",
    "completion.load_model",
    "tensor.tucker_assemble", "tensor.mode_product",
    "baselines.maximin", "baselines.meta_lm_star", "baselines.pooled_gram",
    "highdim.choose_lambda", "highdim.group_lasso", "highdim.fit_highdim",
    "transfer.tensortl", "transfer.cross_validate_lambda",
    "transfer.lasso_offset",
    "datasets.write_csv", "datasets.ingest_csv",
    "metrics.al2e", "metrics.adge", "metrics.tle",
    "experiments.run_experiment",
    "cli.main",
)

# Solvers whose public ``history=`` list yields the iteration count: one
# entry for the starting point, then one per iteration.
HISTORY_SOLVERS = ("baselines.maximin", "highdim.group_lasso",
                   "transfer.lasso_offset")

# Functions whose first argument is a file path; its size is recorded.
PATH_FUNCTIONS = ("datasets.write_csv", "datasets.ingest_csv")

# numpy.linalg entry points counted per op; eigvalsh counts as eigh.
LINALG = {"inv": "inv", "eigh": "eigh", "eigvalsh": "eigh", "solve": "solve"}


class Tracer:
    """In-memory span and counter store for one traced loop."""

    def __init__(self):
        # span: [id, parent, op, name, start, end, iters, bytes, error]
        self.spans = []
        self.stack = []
        self.op = -1
        self.linalg = defaultdict(Counter)   # op -> Counter(name)

    def open(self, name):
        span = [len(self.spans), self.stack[-1][0] if self.stack else -1,
                self.op, name, time.perf_counter(), None, 0, 0, 0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span[5] = time.perf_counter()
        self.stack.pop()

    def self_times(self):
        """Per span id: duration minus the time its child spans cover."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[5] - s[4]
        return own

    def write(self, path, header):
        """Write a header line, then one JSON line per span."""
        own = self.self_times()
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for s, self_s in zip(self.spans, own):
                handle.write(json.dumps({
                    "id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                    "start": s[4], "end": s[5], "self_s": self_s,
                    "iters": s[6], "bytes": s[7], "error": s[8]}) + "\n")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tensordg"
                                  or name.startswith("tensordg."))]


class Instrumentation:
    """Installs wrappers for one loop and removes them afterwards.

    ``probes`` maps "<module>.<function>" to a callback
    ``fn(args, kwargs, result)`` that runs after each successful call.
    With a tracer, every function in TRACED is also wrapped with spans and
    numpy.linalg calls are counted.
    """

    def __init__(self, probes=None, tracer=None):
        self.probes = dict(probes or {})
        self.tracer = tracer
        self.patched = []        # (namespace, attribute, original)

    def __enter__(self):
        names = set(self.probes)
        if self.tracer is not None:
            names.update(TRACED)
        for qualname in sorted(names):
            module, attr = qualname.split(".")
            original = getattr(sys.modules["tensordg." + module], attr)
            self._replace(original, self._wrap(qualname, original))
        if self.tracer is not None:
            for attr, label in LINALG.items():
                original = getattr(np.linalg, attr)
                counted = self._count(label, original)
                setattr(np.linalg, attr, counted)
                self.patched.append((np.linalg, attr, original))
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self.patched):
            setattr(namespace, attr, original)
        self.patched.clear()
        return False

    def _replace(self, original, wrapper):
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self.patched.append((module, attr, original))

    def _count(self, label, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.linalg[tracer.op][label] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, qualname, fn):
        tracer = self.tracer
        probe = self.probes.get(qualname)
        history_arg = qualname in HISTORY_SOLVERS
        path_arg = qualname in PATH_FUNCTIONS

        if tracer is None:
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                result = fn(*args, **kwargs)
                probe(args, kwargs, result)
                return result
            return probed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if history_arg:
                history = kwargs.get("history")
                if history is None:
                    history = kwargs["history"] = []
                start_len = len(history)
            span = tracer.open(qualname)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[8] = 1
                raise
            finally:
                tracer.close(span)
            if history_arg:
                span[6] = max(len(history) - start_len - 1, 0)
            if path_arg:
                span[7] = os.path.getsize(args[0])
            if probe is not None:
                probe(args, kwargs, result)
            return result
        return traced
