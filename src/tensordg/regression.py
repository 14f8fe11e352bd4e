"""Per-group least squares fits, one per observed group.

An LU solve of each group's Gram against [X'y/n | I] gives the
coefficient and the inverse Gram; each fit stores its noise covariance
and trace, so no later stage inverts. Every stage reads this one set of
fits, held as row arrays. The groups are split into contiguous shares,
one thread per usable CPU (``_threads.map_shares``), and each thread
solves its share in blocks of FIT_BLOCK groups with one batched LAPACK
call per block, so a group costs a handful of numpy calls instead of
about twenty, and the threads wait less on each other for the
interpreter lock. The batched solve runs the same LAPACK routine on the
same matrices, so the fits are bitwise equal to a one-group-at-a-time
loop when BLAS runs single-threaded.
"""

from dataclasses import dataclass, field

import numpy as np

from ._threads import map_shares
from .errors import ConditioningError, DimensionError, NonFiniteError

# Gram matrices with smaller relative eigenvalues than this are treated as
# singular rather than solved.
GRAM_EIGENVALUE_FLOOR = 1e-10

# Groups per batched solve: blocks of 16 or 32 fitted no faster, and at
# p = 80 a block's right-hand sides and solution take 0.8 MB of the
# fitting thread's heap.
FIT_BLOCK = 8


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


def _empty_fits(G, p):
    """Rows for G fits: coef, sigma2, n, noise_trace, X'X and noise_cov."""
    return (np.empty((G, p)), np.empty(G), np.empty(G, dtype=int),
            np.empty(G), np.empty((G, p, p)), np.empty((G, p, p)))


def _fail(error, message, group):
    raise error(message if group is None else f"group {group}: {message}",
                where=group)


def _fit_rows(data, out, groups):
    """Least squares for a run of groups, one LU solve per block of them.

    ``data`` holds each group's (X, y) and ``out`` the run's rows of the
    ``_empty_fits`` arrays, which are filled. Each block of at most
    FIT_BLOCK groups solves its Grams G = X'X/n against [X'y/n | I] in
    one batched ``np.linalg.solve``, which runs LAPACK on each matrix as
    a single solve would, so every fit is bitwise that of a run of one.
    The right-hand sides are allocated once per run, and the block's
    Grams are held in its not yet written noise_cov rows.

    G is singular when its smallest eigenvalue is at most
    GRAM_EIGENVALUE_FLOOR times its largest. The eigenvalues are only
    computed when the solve does not certify that they are not: for
    symmetric G, kappa_2 <= kappa_1 = ||G||_1 ||G^-1||_1, and kappa_1
    below 1 / (2 GRAM_EIGENVALUE_FLOOR) leaves a factor two for rounding.
    A group with n <= p or a singular G raises DimensionError or
    ConditioningError naming its entry of ``groups`` (None names none);
    of several, the first in the run.
    """
    coef, sigma2, n, noise_trace, xtx, noise_cov = out
    G, p = coef.shape
    n[:] = [len(X) for X, _ in data]
    small = np.flatnonzero(n <= p)
    if small.size:
        j = small[0]
        if j:      # the groups ahead of it may fail first
            _fit_rows(data[:j], [a[:j] for a in out], groups[:j])
        _fail(DimensionError, f"need n > p, got n={n[j]}, p={p}", groups[j])
    rhs_buf, eye = np.empty((min(G, FIT_BLOCK), p, p + 1)), np.eye(p)
    for start in range(0, G, FIT_BLOCK):
        rows = slice(start, min(start + FIT_BLOCK, G))
        rhs = rhs_buf[:rows.stop - start]
        for j, (X, y) in enumerate(data[rows], start):
            np.matmul(X.T, X, out=xtx[j])
            np.divide(X.T @ y, n[j], out=rhs[j - start, :, 0])
        rhs[:, :, 1:] = eye
        gram = np.divide(xtx[rows], n[rows, None, None], out=noise_cov[rows])
        try:
            sol = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            # an exactly singular Gram: one group at a time finds the first
            if G == 1:
                _check_gram(gram[0], groups[0], solved=False)
            for j in range(start, rows.stop):
                _fit_rows(data[j:j + 1], [a[j:j + 1] for a in out],
                          groups[j:j + 1])
            continue
        inv, scratch = sol[:, :, 1:], rhs[:, :, 1:]   # [X'y/n | I] is spent
        kappa1 = (np.abs(gram, out=scratch).sum(axis=1).max(axis=1)
                  * np.abs(inv, out=scratch).sum(axis=1).max(axis=1))
        for j in np.flatnonzero(~(kappa1 * GRAM_EIGENVALUE_FLOOR < 0.5)):
            _check_gram(gram[j], groups[start + j])
        coef[rows] = sol[:, :, 0]
        for j, (X, y) in enumerate(data[rows], start):
            sigma2[j] = np.sum((y - X @ coef[j]) ** 2)
        sigma2[rows] /= n[rows] - p
        np.multiply(inv, (sigma2[rows] / n[rows])[:, None, None], out=gram)
        del sol, inv    # one block's solution alive at a time
    np.trace(noise_cov, axis1=1, axis2=2, out=noise_trace)


def _check_gram(gram, group, solved=True):
    """Raise ConditioningError naming ``group`` when the Gram's eigenvalues
    show it singular, or when its solve failed."""
    eig = np.linalg.eigvalsh(gram)
    if not solved or eig[0] <= GRAM_EIGENVALUE_FLOOR * max(eig[-1], 0.0):
        _fail(ConditioningError,
              f"design Gram is numerically singular "
              f"(eigenvalue ratio {eig[0] / max(eig[-1], 1e-300):.2e})", group)


def ols_fit(X, y):
    """Least squares via the normal equations with a pivoted (LU) solve.

    Returns (coef, gram, sigma2) where gram = X'X/n and sigma2 is the
    residual variance on n - p degrees of freedom. The fit is a block of
    one of ``fit_all``'s.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    coef, sigma2, n, _, xtx, _ = out = _empty_fits(1, X.shape[1])
    _fit_rows([(X, y)], out, [None])
    return coef[0], xtx[0] / n[0], float(sigma2[0])


@dataclass
class GroupEstimates:
    """Per-group OLS fits (the paper's beta-tilde), one row per group of
    ``groups`` (``observed_list`` order): ``coef`` (G, p), ``noise_cov``
    (G, p, p), ``noise_trace``, ``sigma2`` and ``n`` (G,). ``index``,
    shaped as the group space, holds each group's row, or -1 where the
    group has no fit; ``rows`` gathers through it. ``pooled`` is sum X'X
    / sum n from the products the fits formed: ``baselines.pooled_gram``
    of the observed groups, bit for bit when p >= 2. At p = 1 numpy adds
    8 or more groups pairwise, so the last bits may differ there.
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
        group outside the group space or with no fit raises
        DimensionError naming it (``where``)."""
        groups = np.asarray(groups)
        bad = ((groups < 1) | (groups > self.index.shape)).any(axis=-1)
        if not bad.any():
            rows = self.index[tuple(np.moveaxis(groups, -1, 0) - 1)]
            bad = rows < 0
        if bad.any():
            g = tuple(groups[bad][0].tolist())
            raise DimensionError(f"group {g} has no fit", where=g)
        return rows


def fit_all(ds, pattern):
    """OLS fits for every observed group, in one pass over the dataset.

    ``_threads.map_shares`` splits the groups into contiguous shares, one
    thread per usable CPU, and each thread passes its share to
    ``_fit_rows``, which fits it in blocks of at most FIT_BLOCK groups,
    one batched solve per block. The threads call only the
    private ``_fit_rows``, never ``ols_fit``, so the public functions
    that ``perfbench/spans.py`` wraps by name stay on the calling thread.
    That thread allocates every output row array the blocks fill, so that
    no worker's malloc arena holds them (see ``_threads``), and sums the
    X'X block into the pooled Gram. Errors from a small or singular
    group name it (as ``where``); of several, the first in
    ``observed_list`` order.
    """
    observed = pattern.observed_list()
    missing = [g for g in observed if g not in ds.groups]
    if missing:
        raise DimensionError(f"dataset lacks observed groups {missing[:5]}")
    G = len(observed)
    out = _empty_fits(G, ds.p)

    def fit(share):
        _fit_rows([ds.groups[g] for g in observed[share]],
                  [a[share] for a in out], observed[share])

    map_shares(fit, G)
    coef, sigma2, n, noise_trace, xtx, noise_cov = out
    index = np.full(pattern.space, -1)
    index[tuple(np.array(observed).T - 1)] = np.arange(G)
    return GroupEstimates(observed, coef, noise_cov, noise_trace, sigma2, n,
                          index, xtx.sum(axis=0) / n.sum())
