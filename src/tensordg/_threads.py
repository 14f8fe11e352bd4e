"""Map a function over independent groups on the usable CPUs.

The per-group stages (each group's simulated draw, each group's OLS fit,
which ``regression.fit_all`` solves in blocks of groups on each thread's
``chunks`` share) read only their own group's data, so they can run side
by side. numpy releases the GIL while it fills random arrays and inside
BLAS and LAPACK, so threads give real parallelism there. Every group runs
the same arithmetic whichever thread runs it, so results are bitwise
identical to a serial loop as long as BLAS itself is single-threaded.

Threads live for one call only: no pool outlives it, so a process forked
afterwards inherits no threads. Process-pool workers call ``run_serially``
as their initializer, so N worker processes never start N x CPUs threads.

Memory a thread allocates comes from that thread's malloc arena, and
freed memory stays with its arena. A new thread can get a new arena when
the last call's thread has not yet fully exited, which happens often on
a busy machine. So callers allocate the long-lived outputs on the
calling thread and the workers fill them: each worker arena then holds
only per-group temporaries.
"""

import os
import threading

_serial = False


def run_serially():
    """Make every later ``map_groups`` call in this process run serially."""
    global _serial
    _serial = True


def usable_cpus():
    """CPUs this process may run on (its affinity set where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_count(n_items):
    """Threads ``map_groups`` uses for n_items: one per usable CPU, at
    most one per item, and one in a process set to run serially."""
    if _serial:
        return 1
    return max(1, min(n_items, usable_cpus()))


def chunks(n_items, k):
    """k contiguous slices covering range(n_items), their sizes at most
    one apart, the larger ones first."""
    size, extra = divmod(n_items, k)
    bounds = [0]
    for i in range(k):
        bounds.append(bounds[-1] + size + (i < extra))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def map_groups(fn, items):
    """[fn(x) for x in items], with the items split into contiguous chunks.

    The last chunk runs in the calling thread, the others on threads that
    are joined before the call returns. If any item raises, the exception
    of the first failing item in input order is raised; the items after it
    in its chunk do not run.
    """
    items = list(items)
    k = thread_count(len(items))
    if k == 1:
        return [fn(x) for x in items]
    parts = chunks(len(items), k)
    outcomes = [None] * k          # per chunk: (results, exception or None)

    def run(i):
        done = []
        try:
            for x in items[parts[i]]:
                done.append(fn(x))
        except Exception as exc:
            outcomes[i] = done, exc
        else:
            outcomes[i] = done, None

    threads = [threading.Thread(target=run, args=(i,)) for i in range(k - 1)]
    for t in threads:
        t.start()
    try:
        run(k - 1)
    finally:
        for t in threads:
            t.join()
    results = []
    for done, exc in outcomes:
        if exc is not None:
            raise exc
        results.extend(done)
    return results
