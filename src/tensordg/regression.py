"""Per-group least squares fits, one per observed group.

One LU solve per group gives the coefficient and the inverse Gram; each
fit stores its noise covariance and trace, so no later stage inverts.
Every stage reads this one set of fits, held as row arrays. The groups
are fitted side by side on threads, one per usable CPU (``_threads``);
each fit's arithmetic is the serial one, so the fits are bitwise equal
to a one-group-at-a-time loop when BLAS runs single-threaded.
"""

from dataclasses import dataclass, field

import numpy as np

from ._threads import map_groups
from .errors import ConditioningError, DimensionError, NonFiniteError

# Gram matrices with smaller relative eigenvalues than this are treated as
# singular rather than solved.
GRAM_EIGENVALUE_FLOOR = 1e-10


@dataclass(frozen=True)
class GroupFit:
    """OLS output for one group: coefficients, noise estimate, and the
    coefficients' noise covariance (sigma2/n) (X'X/n)^-1 with its trace."""

    coef: np.ndarray
    sigma2: float
    n: int
    noise_cov: np.ndarray
    noise_trace: float


@dataclass
class GroupedDataset:
    """Samples keyed by group tuple; every group shares the feature dim.

    Raises NonFiniteError naming the group when a design or response
    holds NaN or infinite values.
    """

    groups: dict = field(default_factory=dict)

    def __post_init__(self):
        p = None
        norm = {}
        for g, (X, y) in self.groups.items():
            X = np.asarray(X, dtype=float)
            y = np.asarray(y, dtype=float).ravel()
            if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] < 1:
                raise DimensionError(
                    f"group {g}: design {X.shape} does not match {y.size} responses")
            key = tuple(int(i) for i in g)
            if not (np.isfinite(X).all() and np.isfinite(y).all()):
                raise NonFiniteError(
                    f"group {key}: data hold non-finite values", where=key)
            if p is None:
                p = X.shape[1]
            elif X.shape[1] != p:
                raise DimensionError(
                    f"group {g}: feature dim {X.shape[1]} != {p}")
            norm[key] = (X, y)
        self.groups = norm

    @property
    def p(self):
        if not self.groups:
            raise DimensionError("empty dataset")
        return next(iter(self.groups.values()))[0].shape[1]

    def restrict_columns(self, cols):
        """Dataset with design columns limited to the given 0-based list."""
        cols = list(cols)
        return GroupedDataset({g: (X[:, cols], y)
                               for g, (X, y) in self.groups.items()})


def _lu_fit(X, y, xtx=None, noise_cov=None):
    """Least squares by one LU solve of G = X'X/n against [X'y/n | I].

    Returns (GroupFit, X'X); X'X and the noise covariance are written
    into ``xtx`` and ``noise_cov`` when those (p, p) arrays are given. G
    is singular when its smallest eigenvalue is at most
    GRAM_EIGENVALUE_FLOOR times its largest. The eigenvalues are only
    computed when the solve does not certify that they are not: for
    symmetric G, kappa_2 <= kappa_1 = ||G||_1 ||G^-1||_1, and kappa_1
    below 1 / (2 GRAM_EIGENVALUE_FLOOR) leaves a factor two for rounding.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    if n <= p:
        raise DimensionError(f"need n > p, got n={n}, p={p}")
    xtx = np.matmul(X.T, X, out=xtx)
    gram = xtx / n
    try:
        sol = np.linalg.solve(gram, np.column_stack([X.T @ y / n, np.eye(p)]))
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(sol[:, 1:], 1)
        certified = kappa1 * GRAM_EIGENVALUE_FLOOR < 0.5
    except np.linalg.LinAlgError:
        sol, certified = None, False
    if not certified:
        eig = np.linalg.eigvalsh(gram)
        if sol is None or eig[0] <= GRAM_EIGENVALUE_FLOOR * max(eig[-1], 0.0):
            raise ConditioningError(
                f"design Gram is numerically singular "
                f"(eigenvalue ratio {eig[0] / max(eig[-1], 1e-300):.2e})")
    # copy, so that no view keeps the whole solve buffer alive
    coef = sol[:, 0].copy()
    rss = float(np.sum((y - X @ coef) ** 2))
    sigma2 = max(rss, 0.0) / (n - p)
    noise_cov = np.multiply(sol[:, 1:], sigma2 / n, out=noise_cov)
    return GroupFit(coef, sigma2, n, noise_cov,
                    float(np.trace(noise_cov))), xtx


def ols_fit(X, y):
    """Least squares via the normal equations with a pivoted (LU) solve.

    Returns (coef, gram, sigma2) where gram = X'X/n and sigma2 is the
    residual variance on n - p degrees of freedom.
    """
    fit, xtx = _lu_fit(X, y)
    return fit.coef, xtx / fit.n, fit.sigma2


@dataclass
class GroupEstimates:
    """Per-group OLS fits (the paper's beta-tilde), one row per group of
    ``groups`` (``observed_list`` order): ``coef`` (G, p), ``noise_cov``
    (G, p, p), ``noise_trace``, ``sigma2`` and ``n`` (G,). ``index``,
    shaped as the group space, holds each group's row, or -1 where the
    group has no fit; ``rows`` gathers through it. ``pooled``, sum X'X /
    sum n summed in row order from the products the fits formed, equals
    ``baselines.pooled_gram`` of the observed groups bit for bit.
    """

    groups: list
    coef: np.ndarray
    noise_cov: np.ndarray
    noise_trace: np.ndarray
    sigma2: np.ndarray
    n: np.ndarray
    index: np.ndarray
    pooled: np.ndarray

    @property
    def tilde(self):
        """Read-only {group: GroupFit} views of the rows."""
        return {g: GroupFit(*fit) for g, *fit in zip(
            self.groups, self.coef, self.sigma2.tolist(), self.n.tolist(),
            self.noise_cov, self.noise_trace.tolist())}

    def rows(self, groups):
        """Rows of ``groups``, an int array (..., q) of 1-based levels; a
        group with no fit raises DimensionError naming it (``where``)."""
        rows = self.index[tuple(np.moveaxis(groups, -1, 0) - 1)]
        if (rows < 0).any():
            g = tuple(np.asarray(groups)[rows < 0][0].tolist())
            raise DimensionError(f"group {g} has no fit", where=g)
        return rows


def fit_all(ds, pattern):
    """OLS fits for every observed group, in one pass over the dataset.

    The groups are fitted in contiguous chunks on threads, one per usable
    CPU. The threads call only the private ``_lu_fit``, never ``ols_fit``,
    so the public functions that ``perfbench/spans.py`` wraps by name stay
    on the calling thread. That thread allocates the (G, p, p) blocks the
    fits fill, so that no worker's malloc arena holds them (see
    ``_threads``), and sums the X'X block into the pooled Gram in row
    order. Errors from a small or singular group are re-raised naming it
    (as ``where``); of several, the first in ``observed_list`` order.
    """
    observed = pattern.observed_list()
    missing = [g for g in observed if g not in ds.groups]
    if missing:
        raise DimensionError(f"dataset lacks observed groups {missing[:5]}")
    G, p = len(observed), ds.p
    xtx, noise_cov = np.empty((G, p, p)), np.empty((G, p, p))

    def fit(i):
        g = observed[i]
        try:
            fit = _lu_fit(*ds.groups[g], xtx[i], noise_cov[i])[0]
        except (ConditioningError, DimensionError) as exc:
            raise type(exc)(f"group {g}: {exc}", where=g) from exc
        return fit.coef, fit.sigma2, fit.n, fit.noise_trace

    coef, sigma2, n, noise_trace = map(
        np.array, zip(*map_groups(fit, range(G))))
    index = np.full(pattern.space, -1)
    index[tuple(np.array(observed).T - 1)] = np.arange(G)
    return GroupEstimates(observed, coef, noise_cov, noise_trace, sigma2, n,
                          index, xtx.sum(axis=0) / n.sum())
