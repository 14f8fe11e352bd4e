"""Per-group least squares fits, one per observed group.

A group's data are its rows (X, y), held in a ``GroupedDataset``, or
their sufficient statistics (X'X, X'y, the residual sum of squares RSS
and n), held in a ``GroupedStatistics``; the Monte Carlo harness draws
the statistics and every other caller passes rows. ``fit_all`` fits
either in the same blocked solve: rows form X'X and X'y and take the
residual from the rows, statistics give them, with sigma2 = RSS/(n - p).
Each group's Gram G = X'X/n is factored G = LL' (Cholesky), and L is
inverted by 2x2 block recursion on matmul, since numpy has no
triangular solve; G^-1 = L^-T L^-1 then gives the coefficient and the
noise covariance. Each fit stores its noise covariance and trace, so no
later stage inverts. Every stage reads this one set of fits, held as row
arrays. The groups are split into contiguous shares, one thread per
usable CPU (``_threads.map_shares``), and each thread fits its share in
blocks of FIT_BLOCK groups: one batched call per step and block, so a
group costs a fraction of a numpy call per step, and the threads wait
less on each other for the interpreter lock. Every batched call runs the
same arithmetic on each group's matrices, so the fits are bitwise equal
to a one-group-at-a-time loop when BLAS runs single-threaded. The trace
bound kappa_2 <= tr(G) tr(G^-1) certifies most Grams nonsingular; the
rest, and those whose factorization fails, are decided by their
eigenvalues. ``ols_fits`` runs the same blocked fit on a list of (X, y)
pairs on the calling thread, and ``ols_fit`` is its one-pair case.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._threads import map_shares
from .errors import ConditioningError, DimensionError, NonFiniteError
from .patterns import group_key

# Gram matrices with smaller relative eigenvalues than this are treated as
# singular rather than fitted.
GRAM_EIGENVALUE_FLOOR = 1e-10

# Groups per batched factorization. At p = 80 a block's Grams and their
# factors take 0.4 MB each of the fitting thread's heap; blocks of 16
# fitted the fit_q3 design about 10% faster on two threads, with twice
# that scratch.
FIT_BLOCK = 8

# Widest diagonal block of a Cholesky factor that is inverted by forward
# substitution; wider factors are split in halves (_leaves). 8 fitted
# runs of one at p = 60 and 80 and the reference and fit_q3 designs 2-6%
# faster than 16, though it pads p = 60 to 64.
INV_LEAF = 8


@dataclass(frozen=True)
class GroupFit:
    """OLS output for one group: coefficients, noise estimate, and the
    coefficients' noise covariance (sigma2/n) (X'X/n)^-1 with its trace."""

    coef: np.ndarray
    sigma2: float
    n: int
    noise_cov: np.ndarray
    noise_trace: float


def _fail(error, message, group):
    raise error(message if group is None else f"group {group}: {message}",
                where=group)


def _samples(X, y, p=None, where=None):
    """A caller's sample (X, y) as float arrays, y raveled. X must be
    (n, p), n = y.size >= 1 (any p when None), else DimensionError, and
    X and y finite, else NonFiniteError; both name the group ``where``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or not 0 < y.size == len(X) or p not in (None, X.shape[1]):
        _fail(DimensionError, f"design {X.shape} does not match {y.size} "
              f"responses" + ("" if p is None else f" and p={p}"), where)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        _fail(NonFiniteError, "data hold non-finite values", where)
    return X, y


def _statistics(xtx, xty, rss, n, p=None, where=None):
    """A caller's statistics (X'X, X'y, RSS, n) as float arrays, a float
    and an int, X'y raveled. X'X must be (p, p) for p = X'y.size, with
    the given p unless it is None, RSS a scalar and n an integer >= 1,
    else DimensionError, all finite, else NonFiniteError, and RSS >= 0,
    else DimensionError, since a negative one would give a negative
    sigma2; each error names the group ``where``. n <= p is left to the
    fit, as for rows."""
    xtx = np.asarray(xtx, dtype=float)
    xty = np.asarray(xty, dtype=float).ravel()
    k = xty.size
    if xtx.shape != (k, k) or np.ndim(rss) or p not in (None, k):
        _fail(DimensionError, f"statistics X'X {xtx.shape}, X'y "
              f"{xty.shape} and RSS {np.shape(rss)} do not match"
              + ("" if p is None else f" p={p}"), where)
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool)
            and n >= 1):
        _fail(DimensionError, f"n = {n!r}: need an integer >= 1", where)
    if not (np.isfinite(xtx).all() and np.isfinite(xty).all()
            and np.isfinite(rss)):
        _fail(NonFiniteError, "statistics hold non-finite values", where)
    if rss < 0:
        _fail(DimensionError, f"RSS = {float(rss)!r}: need RSS >= 0", where)
    return xtx, xty, float(rss), int(n)


@dataclass
class _Grouped:
    """Per-group data keyed by group tuple; every group shares the
    feature dim. Each group's entry is checked by the class's ``_check``
    against the first group's p, so bad input raises an error that names
    the group."""

    groups: dict = field(default_factory=dict)

    def __post_init__(self):
        p, norm = None, {}
        for g, entry in self.groups.items():
            key = group_key(g)
            norm[key] = entry = self._check(*entry, p, key)
            p = entry[0].shape[1]
        self.groups = norm

    @property
    def p(self):
        if not self.groups:
            raise DimensionError("empty dataset")
        return next(iter(self.groups.values()))[0].shape[1]


class GroupedDataset(_Grouped):
    """Samples (X, y) keyed by group tuple, checked by ``_samples``."""

    _check = staticmethod(_samples)

    def restrict_columns(self, cols):
        """Dataset with design columns limited to the given 0-based list."""
        cols = list(cols)
        return GroupedDataset({g: (X[:, cols], y)
                               for g, (X, y) in self.groups.items()})


class GroupedStatistics(_Grouped):
    """Sufficient statistics keyed by group tuple: (X'X, X'y, RSS, n) of
    n rows (X, y), RSS the residual sum of squares of their least
    squares fit. ``fit_all`` fits them as it fits a GroupedDataset's
    rows. Each entry is checked by ``_statistics``."""

    _check = staticmethod(_statistics)


def _empty_fits(G, p, xtx=None):
    """Rows for G fits: coef, sigma2, n, noise_trace, X'X and noise_cov.
    ``xtx``, when given, is the list of the groups' X'X blocks, read and
    not copied; otherwise a (G, p, p) array that the fits fill."""
    return (np.empty((G, p)), np.empty(G), np.empty(G, dtype=int),
            np.empty(G), np.empty((G, p, p)) if xtx is None else xtx,
            np.empty((G, p, p)))


def _leaves(p):
    """(width, levels): the factor of a p x p Gram is inverted as a
    width * 2**levels square, the fewest levels whose leaf width is at
    most INV_LEAF. That square exceeds p by fewer than 2**levels rows."""
    levels = (-(-p // INV_LEAF) - 1).bit_length()
    return -(-p // 2 ** levels), levels


def _diagonal_blocks(a, width):
    """Writable view (k, m, width, width) of the m diagonal blocks of
    width ``width`` of the C-contiguous (k, m * width, m * width) array
    ``a``."""
    k, size, _ = a.shape
    s0, s1, s2 = a.strides
    return np.ndarray((k, size // width, width, width), a.dtype, a, 0,
                      (s0, width * (s1 + s2), s1, s2))


def _invert_lower(L, width, levels):
    """Invert the C-contiguous lower triangular (k, P, P) stack L in
    place, P = width * 2**levels, by 2x2 block recursion (Higham 2002,
    sec. 14.2):

        [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]].

    The leaves, the diagonal blocks of width ``width``, are inverted
    together by forward substitution. A leaf is T = D (I - N), D its
    diagonal and N strictly lower, so T^-1 = U D^-1 with U = I + N U:
    below the diagonal, row i of U is row i of N times the rows of U
    above it, one matmul per row for all leaves at once (in place; numpy
    buffers the overlapping operands). So the inverse is exactly
    triangular and no LAPACK inverse or solve is called. Each level up
    then stacks the equal-sized halves of all its diagonal blocks into
    one pair of matmuls.
    """
    leaves = _diagonal_blocks(L, width)
    diag = range(width)
    pivots = leaves[:, :, diag, diag]
    np.divide(leaves, -pivots[..., None], out=leaves)
    leaves[:, :, diag, diag] = 1.0
    for i in range(1, width):
        np.matmul(leaves[:, :, i, None, :i], leaves[:, :, :i, :i],
                  out=leaves[:, :, i, None, :i])
    np.divide(leaves, pivots[:, :, None], out=leaves)
    for level in range(levels):
        h = width << level
        blocks = _diagonal_blocks(L, 2 * h)
        lower = blocks[..., h:, :h]
        np.negative(blocks[..., h:, h:] @ (lower @ blocks[..., :h, :h]),
                    out=lower)


def _fit_rows(data, out, groups, stats=False):
    """Least squares for a run of groups, one Cholesky factor per group.

    ``data`` holds each group's (X, y), or with ``stats`` its checked
    statistics (X'X, X'y, RSS, n), and ``out`` the run's rows of the
    ``_empty_fits`` arrays, which are filled; for statistics, the X'X
    rows are the groups' own blocks. Rows form X'X into ``out`` and X'y,
    and after the solve take sigma2 from the residual sum of squares of
    the rows; statistics give all three. Each block of at most
    FIT_BLOCK groups factors its Grams G = X'X/n = LL' in one batched
    ``np.linalg.cholesky`` and inverts the factors in place by block
    recursion (``_invert_lower``). Then G^-1 = L^-T L^-1, written into
    the block's noise_cov rows, gives coef = G^-1 X'y/n, and
    scaled by sigma2/n it is the noise covariance. Every call on a block
    runs the same arithmetic on each group's matrices, so every fit is
    bitwise that of a run of one. The Grams are factored from one buffer
    per run, padded with an identity block (empty when p is a leaf width
    times a power of two), whose factor and inverse are that identity
    exactly.

    G is singular when its smallest eigenvalue is at most
    GRAM_EIGENVALUE_FLOOR times its largest. The eigenvalues are only
    computed when the inverse does not certify that they are not:
    kappa_2 <= tr(G) tr(G^-1), and that product below
    1 / (2 GRAM_EIGENVALUE_FLOOR) leaves a factor two for rounding. A
    block whose factorization fails is refitted one group at a time, and
    a group whose factorization fails is singular. A group with n <= p
    or a singular G raises DimensionError or ConditioningError naming its
    entry of ``groups`` (None names none); of several, the first in the
    run.
    """
    coef, sigma2, n, noise_trace, xtx, noise_cov = out
    G, p = coef.shape
    n[:] = [s[3] if stats else len(s[0]) for s in data]
    small = np.flatnonzero(n <= p)
    if small.size:
        j = small[0]
        if j:      # the groups ahead of it may fail first
            _fit_rows(data[:j], [a[:j] for a in out], groups[:j], stats)
        _fail(DimensionError, f"need n > p, got n={n[j]}, p={p}", groups[j])
    width, levels = _leaves(p)
    padded = width << levels
    pad = np.zeros((min(G, FIT_BLOCK), padded, padded))
    pad[:, range(p, padded), range(p, padded)] = 1.0
    xty = np.empty((min(G, FIT_BLOCK), p, 1))
    for start in range(0, G, FIT_BLOCK):
        rows = slice(start, min(start + FIT_BLOCK, G))
        k = rows.stop - start
        gram = pad[:k]
        for j, s in enumerate(data[rows]):
            if stats:
                sxy = s[1]
            else:
                X, y = s
                np.matmul(X.T, X, out=xtx[start + j])
                sxy = X.T @ y
            np.divide(xtx[start + j], n[start + j], out=gram[j, :p, :p])
            np.divide(sxy, n[start + j], out=xty[j, :, 0])
        kappa = np.trace(gram[:, :p, :p], axis1=1, axis2=2)
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            # not positive definite: one group at a time finds the first
            if G == 1:
                _check_gram(gram[0, :p, :p], groups[0], factored=False)
            for j in range(start, rows.stop):
                _fit_rows(data[j:j + 1], [a[j:j + 1] for a in out],
                          groups[j:j + 1], stats)
            continue
        _invert_lower(L, width, levels)
        inv_factor = L[:, :p, :p]
        inv = np.matmul(inv_factor.swapaxes(1, 2), inv_factor,
                        out=noise_cov[rows])
        kappa *= np.trace(inv, axis1=1, axis2=2)     # >= kappa_2 of G
        for j in np.flatnonzero(~(kappa * GRAM_EIGENVALUE_FLOOR < 0.5)):
            _check_gram(xtx[start + j] / n[start + j], groups[start + j])
        np.matmul(inv, xty[:k], out=coef[rows, :, None])
        for j, s in enumerate(data[rows], start):
            sigma2[j] = (s[2] if stats
                         else np.sum((s[1] - s[0] @ coef[j]) ** 2))
        sigma2[rows] /= n[rows] - p
        inv *= (sigma2[rows] / n[rows])[:, None, None]
        del L, inv_factor   # one block's factor alive at a time
    np.trace(noise_cov, axis1=1, axis2=2, out=noise_trace)


def _check_gram(gram, group, factored=True):
    """Raise ConditioningError naming ``group`` when the Gram's eigenvalues
    show it singular, or when its factorization failed."""
    eig = np.linalg.eigvalsh(gram)
    if not factored or eig[0] <= GRAM_EIGENVALUE_FLOOR * max(eig[-1], 0.0):
        _fail(ConditioningError,
              f"design Gram is numerically singular "
              f"(eigenvalue ratio {eig[0] / max(eig[-1], 1e-300):.2e})", group)


def ols_fits(pairs, names=None):
    """Least squares for each (X, y) of ``pairs``, in one ``_fit_rows``
    run on the calling thread.

    Returns (coef, gram, sigma2) stacked over the pairs: coef (k, p),
    gram = X'X/n (k, p, p) and sigma2 (k,), the residual variance on
    n - p degrees of freedom. The pairs are fitted in blocks of
    FIT_BLOCK, and every fit is bitwise its pair's ``ols_fit``. Errors
    name the pair's entry of ``names`` (None names none). A design that
    is not (n, p), with the first pair's p, raises DimensionError, and
    NaN or infinite values NonFiniteError, before any pair is fitted.
    Then a pair with n <= p or a singular Gram raises DimensionError or
    ConditioningError; of several, the first.
    """
    pairs, p = list(pairs), None
    names = [None] * len(pairs) if names is None else list(names)
    for k, ((X, y), name) in enumerate(zip(pairs, names)):
        pairs[k] = X, y = _samples(X, y, p, name)
        p = X.shape[1]
    coef, sigma2, n, _, xtx, _ = out = _empty_fits(len(pairs), p or 0)
    _fit_rows(pairs, out, names)
    return coef, xtx / n[:, None, None], sigma2


def ols_fit(X, y):
    """Least squares via the normal equations and a Cholesky factor.

    Returns (coef, gram, sigma2) where gram = X'X/n and sigma2 is the
    residual variance on n - p degrees of freedom: ``ols_fits`` of the
    one pair, a block of one of ``fit_all``'s. NaN or infinite values
    raise NonFiniteError before the fit.
    """
    coef, gram, sigma2 = ols_fits([(X, y)])
    return coef[0], gram[0], float(sigma2[0])


@dataclass
class GroupEstimates:
    """Per-group OLS fits (the paper's beta-tilde), one row per group of
    ``groups`` (``observed_list`` order): ``coef`` (G, p), ``noise_cov``
    (G, p, p), ``noise_trace``, ``sigma2`` and ``n`` (G,). ``index``,
    shaped as the group space, holds each group's row, or -1 where the
    group has no fit; ``rows`` gathers through it. ``pooled`` is sum X'X
    / sum n over the X'X blocks the fits read, summed in row order: for
    rows, ``baselines.pooled_gram`` of the observed groups, bit for bit.
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

    ``ds`` is a GroupedDataset of rows or a GroupedStatistics; both are
    fitted by ``_fit_rows``, and statistics give sigma2 = RSS/(n - p).
    ``_threads.map_shares`` splits the groups into contiguous shares, one
    thread per usable CPU, and each thread passes its share to
    ``_fit_rows``, which fits it in blocks of at most FIT_BLOCK groups,
    one batched factorization per block. The threads call only the
    private ``_fit_rows``, never ``ols_fit``, so the public functions
    that ``perfbench/spans.py`` wraps by name stay on the calling thread.
    That thread allocates every output row array the blocks fill, so that
    no worker's malloc arena holds them (see ``_threads``), and sums the
    X'X blocks into the pooled Gram: for statistics, the given blocks,
    which are not copied. Errors from a small or singular group name it
    (as ``where``); of several, the first in ``observed_list`` order.
    """
    observed = pattern.observed_list()
    missing = [g for g in observed if g not in ds.groups]
    if missing:
        raise DimensionError(f"dataset lacks observed groups {missing[:5]}")
    G, p = len(observed), ds.p
    data = [ds.groups[g] for g in observed]
    stats = isinstance(ds, GroupedStatistics)
    out = _empty_fits(G, p, [s[0] for s in data] if stats else None)

    def fit(share):
        _fit_rows(data[share], [a[share] for a in out], observed[share],
                  stats)

    map_shares(fit, G)
    coef, sigma2, n, noise_trace, xtx, noise_cov = out
    pooled = np.zeros((p, p))
    for block in xtx:
        pooled += block
    index = np.full(pattern.space, -1)
    index[tuple(np.array(observed).T - 1)] = np.arange(G)
    return GroupEstimates(observed, coef, noise_cov, noise_trace, sigma2, n,
                          index, pooled / n.sum())
