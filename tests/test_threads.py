"""Per-group stages on threads: order, errors, parity with the serial path."""

import multiprocessing
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import tensordg._threads as _threads
from tensordg import (ConditioningError, DimensionError, ExperimentConfig,
                      ScenarioConfig, fit_all, make_scenario, run_experiment)

# The practitioner fit of the benchmark: q=3, 118 observed groups.
Q3 = dict(q=3, p=80, group_dims=(6, 6, 6), ranks=(6, 2, 2, 2),
          body_sizes=(4, 4, 4), arm_sizes=(3, 3, 3), n=200, n_target=2)
SMALL = dict(p=8, group_dims=(5, 4), ranks=(3, 2, 2), body_sizes=(4, 4),
             arm_sizes=(2, 2), n=40, n_target=60, signal_scale=4.0)


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(_threads, "usable_cpus", lambda: n)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_items", range(1, 8))
def test_results_in_input_order_on_contiguous_chunks(monkeypatch, cpus,
                                                     n_items):
    """One call per share: the shares are contiguous, cover the items in
    order, are at most one item apart, and each runs on its own thread,
    the last on the caller's."""
    set_cpus(monkeypatch, cpus)
    ran = []

    def record(share):
        ran.append((share, threading.current_thread()))

    _threads.map_shares(record, n_items)
    ran.sort(key=lambda run: run[0].start)
    shares = [share for share, _ in ran]
    threads = [thread for _, thread in ran]
    # shares contiguous over range(n_items), at most one item apart
    assert [s.start for s in shares] == [0] + [s.stop for s in shares[:-1]]
    assert shares[-1].stop == n_items
    sizes = [s.stop - s.start for s in shares]
    assert len(shares) == min(cpus, n_items)
    assert max(sizes) - min(sizes) <= 1
    assert len(set(threads)) == len(threads)             # one thread each
    assert threads[-1] is threading.current_thread()     # last: caller


def test_one_usable_cpu_runs_serially_without_threads(monkeypatch):
    set_cpus(monkeypatch, 1)

    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(_threads.threading, "Thread", no_threads)
    ran = []
    _threads.map_shares(lambda share: ran.append(
        (share, threading.get_ident())), 5)
    assert ran == [(slice(0, 5), threading.get_ident())]


def test_usable_cpus_is_the_affinity_set():
    assert _threads.usable_cpus() == len(os.sched_getaffinity(0))


# (the two bad items, the items that ran)
@pytest.mark.parametrize("bad", [
    ((1, 5), [0, 3, 4]), ((5, 1), [0, 3, 4]), ((0, 6), [3, 4, 5]),
    ((6, 0), [3, 4, 5]), ((2, 3), [0, 1, 5, 6])])
def test_first_failing_item_in_input_order_is_raised(monkeypatch, bad):
    """Seven items on three threads: shares [0..2], [3..4], [5..6]. Every
    share runs up to its first bad item, and the error of the first
    failing share is raised."""
    set_cpus(monkeypatch, 3)
    (first, second), ran = bad
    done = []

    def fn(share):
        for x in range(share.start, share.stop):
            if x == first:
                raise KeyError(x)
            if x == second:
                raise ValueError(x)
            done.append(x)

    expected = KeyError if first < second else ValueError
    with pytest.raises(expected) as err:
        _threads.map_shares(fn, 7)
    assert err.value.args == (min(first, second),)
    assert sorted(done) == ran


def toy_scenario():
    return make_scenario(ScenarioConfig(seed=7, **SMALL), 0)


@pytest.mark.parametrize("early_error", [DimensionError, ConditioningError])
def test_fit_all_names_first_bad_group_across_chunks(monkeypatch,
                                                     early_error):
    """Two bad groups, the first in the first chunk and the other in the
    caller's chunk: the first in observed_list order is named."""
    set_cpus(monkeypatch, 3)
    sc = toy_scenario()
    observed = sc.pattern.observed_list()
    first, last = observed[0], observed[-1]
    groups = dict(sc.train.groups)

    def too_few(g):
        X, y = groups[g]
        return X[:3], y[:3]

    def singular(g):
        X, y = groups[g]
        X = np.array(X)
        X[:, 1] = X[:, 0]
        return X, y

    make_bad = {DimensionError: too_few, ConditioningError: singular}
    late_error, = set(make_bad) - {early_error}
    groups[first] = make_bad[early_error](first)
    groups[last] = make_bad[late_error](last)
    sc.train.groups = groups
    with pytest.raises(early_error, match=rf"group \({first[0]}, ") as err:
        fit_all(sc.train, sc.pattern)
    assert err.value.where == first


def assert_bitwise_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_bitwise_equal(a[key], b[key])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert_bitwise_equal(u, v)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    else:
        assert a == b


def run_stages(cfg):
    sc = make_scenario(cfg, 1)
    est = fit_all(sc.train, sc.pattern)
    return sc.train.groups, sc.targets, tuple(est.groups), est.coef, \
        est.noise_cov, est.noise_trace, est.sigma2, est.n, est.index


@pytest.mark.parametrize("cfg", [ScenarioConfig(seed=3),
                                 ScenarioConfig(seed=5, **Q3)],
                         ids=["reference", "fit_q3"])
def test_threaded_stages_are_bitwise_serial(monkeypatch, cfg):
    set_cpus(monkeypatch, 1)
    serial = run_stages(cfg)
    set_cpus(monkeypatch, 3)
    threaded = run_stages(cfg)
    assert_bitwise_equal(serial, threaded)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the recorder reaches workers by fork only")
def test_experiment_workers_run_group_stages_serially(monkeypatch, tmp_path):
    """Each run_experiment worker process maps its groups on one thread,
    while the parent would use three; the records do not change."""
    set_cpus(monkeypatch, 3)
    log = tmp_path / "threads.log"
    chosen = _threads.thread_count

    def recording(n_items):
        k = chosen(n_items)
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {k}\n")
        return k

    monkeypatch.setattr(_threads, "thread_count", recording)
    cfg = ExperimentConfig(name="unit", methods=("tensordg", "ols"),
                           replications=2, seed=7, scenario=dict(SMALL))

    def run(workers):
        log.unlink(missing_ok=True)
        records = run_experiment(replace(cfg, workers=workers))
        lines = [line.split() for line in log.read_text().splitlines()]
        return ([replace(r, seconds=0.0) for r in records],
                {(int(pid) == os.getpid(), int(k)) for pid, k in lines})

    serial, serial_choices = run(1)
    parallel, worker_choices = run(2)
    assert serial_choices == {(True, 3)}
    assert worker_choices == {(False, 1)}
    assert parallel == serial


def test_many_threads_with_frequent_switches_keep_every_result(monkeypatch):
    """Five threads on fewer cores, switching every microsecond: each item
    is written once, by its own share, and every thread has ended."""
    set_cpus(monkeypatch, 5)
    before = threading.active_count()
    out = [None] * 400

    def fill(share):
        for x in range(share.start, share.stop):
            out[x] = sum(range(x % 50)) + x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _threads.map_shares(fill, 400)
    finally:
        sys.setswitchinterval(interval)
    assert out == [sum(range(x % 50)) + x for x in range(400)]
    assert threading.active_count() == before
