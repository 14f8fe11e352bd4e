"""Compare two fits by what the user sees.

A fit's output is its decisions and its numbers, not the last bits of
its floats, so a refactor that only changes the order of a sum or the
memory layout of an operand is judged by this rule:

- Decisions are equal: every int, bool, str and set, and every array of
  them (with its dtype), such as the ranks, the group sizes, the index,
  the support, the rank-floored and ``generalizability`` flags and
  ranks. Convergence is one too: a solve that raises ConvergenceError
  on one side only fails the comparison.
- Every float array is within RTOL, relative to the array:
  max|new - old| <= RTOL * max|old|. A float scalar is an array of one,
  so a penalty one step away on a geometric grid (a factor 100**(1/19))
  fails: the chosen grid index must be equal.
- A solver's solution is judged by its own certificate, not by
  closeness: two solves that stop one iteration apart both meet their
  tolerance and differ by far more than rounding. group_lasso_kkt must
  be at most the solve's tol, and the nonzero rows (its support) must
  be equal.
- Iteration counts and objective histories are not compared.

RTOL is the golden battery's relative tolerance (test_experiments).
"""

import dataclasses

import numpy as np

from tensordg import group_lasso_kkt

RTOL = 1e-10


def assert_close(new, old, where="array"):
    """Float arrays of equal shape within RTOL of the old one's largest
    magnitude."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape, f"{where}: shape {new.shape} != {old.shape}"
    err = float(np.abs(new - old).max(initial=0.0))
    scale = float(np.abs(old).max(initial=0.0))
    assert err <= RTOL * scale, (f"{where}: max|new - old| = {err:.3g} > "
                                 f"{RTOL:g} * {scale:.3g}")


def assert_same_fit(new, old, where="fit"):
    """``new`` shows the user what ``old`` does: dataclasses (a
    CompletionModel, its DenseTensors and pattern), dicts and sequences
    part by part, decisions equal and float arrays within RTOL."""
    if dataclasses.is_dataclass(old):
        assert type(new) is type(old), f"{where}: {type(new)} != {type(old)}"
        new, old = ({f.name: getattr(obj, f.name)
                     for f in dataclasses.fields(obj)} for obj in (new, old))
    if isinstance(old, dict):
        assert new.keys() == old.keys(), f"{where}: keys differ"
        for key in old:
            assert_same_fit(new[key], old[key], f"{where}[{key!r}]")
    elif isinstance(old, (list, tuple)) and any(
            isinstance(v, (dict, list, tuple, np.ndarray))
            or dataclasses.is_dataclass(v) for v in old):
        assert len(new) == len(old), f"{where}: length differs"
        for k, (a, b) in enumerate(zip(new, old)):
            assert_same_fit(a, b, f"{where}[{k}]")
    elif np.asarray(old).dtype.kind == "f":
        assert_close(new, old, where)
    elif isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray) and new.dtype == old.dtype \
            and np.array_equal(new, old), f"{where}: {new!r} != {old!r}"
    else:
        assert new == old, f"{where}: {new!r} != {old!r}"


def support(beta):
    """Rows that are nonzero in any group of a group-lasso solution."""
    rows = np.stack([np.asarray(b, dtype=float) for b in beta.values()])
    return tuple(np.flatnonzero((rows != 0.0).reshape(-1, rows.shape[-1])
                                .any(axis=0)))


def assert_certified(ds, beta, lam, tol):
    """The solution meets its solve's tolerance: group_lasso_kkt <= tol."""
    residual = group_lasso_kkt(ds, beta, lam)
    assert residual <= tol, f"KKT residual {residual:.3g} > tol {tol:.3g}"


def assert_same_solve(ds, new, old, lam, tol):
    """Two group-lasso solutions of one problem: the same groups and
    support, each certified to ``tol``."""
    assert new.keys() == old.keys()
    assert support(new) == support(old), "support differs"
    for beta in (new, old):
        assert_certified(ds, beta, lam, tol)
