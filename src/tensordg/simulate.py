"""Synthetic scenario generation for the Monte Carlo experiments.

A scenario couples a random low-Tucker-rank coefficient tensor with the
symmetric body-and-arm observation layout, Gaussian designs for every
observed group, and evaluation samples for the unobserved groups. Target
coefficients of unobserved groups can receive a sparse additive shift for
the transfer experiments.

The training data of an observed group are its rows (X, y), as ``tensordg
simulate`` writes them, or, with ``make_scenario(..., statistics=True)``
as the Monte Carlo harness asks, the sufficient statistics that its
least squares fit reads: X'X, X'y, y'y and n, drawn from their exact
joint law without the rows (Bartlett's decomposition; Anderson 2003, An
Introduction to Multivariate Statistical Analysis, ch. 7). Their cost
does not grow with n. Truth, shifts and target samples are the same
either way.

``make_scenario`` is the one draw of a replication. After the truth
tensor (stream ``_STAGE_TENSOR``, one per attempt) it runs one job list,
one job per group in ``observed_list() + unobserved_list()`` order. An
observed group draws its rows (``_STAGE_TRAIN``) or its statistics
(``_STAGE_STATS``); an unobserved group draws its shift
(``_STAGE_DELTA``), then its target rows from the shifted coefficients
(``_STAGE_TARGET``). Each stream is seeded from the scenario seed, the
stage, the replication and the group's code, the row-major index of its
0-based levels in the group space. So the jobs run in contiguous shares
side by side on threads, one per usable CPU (``_threads.map_shares``),
and the draws are bitwise those of a serial loop.
"""

from dataclasses import dataclass

import numpy as np

from ._threads import map_shares
from .patterns import _index, _insert, _integers, build_pattern
from .regression import GroupedDataset, GroupedStatistics
from .tensor import DenseTensor, matricize, tucker_assemble

# sub-stream labels for the counter-based seed derivation
_STAGE_TENSOR, _STAGE_TRAIN, _STAGE_TARGET, _STAGE_DELTA = 1, 2, 3, 4
_STAGE_STATS = 5


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one simulation cell; defaults give the reference design."""

    q: int = 2
    p: int = 60
    group_dims: tuple = (8, 8)
    ranks: tuple = (6, 3, 3)        # mode 0 first, then group modes
    body_sizes: tuple = (5, 5)
    arm_sizes: tuple = (5, 5)
    n: int = 300
    n_target: int = 300
    noise_std: float = 1.0
    design: str = "identity"        # or "ar1"
    ar1_rho: float = 0.5
    delta_sparsity: int = 0
    delta_std: float = 0.5
    signal_scale: float = 1.0
    rank_margin: float = 0.13       # smallest acceptable sigma_r / sigma_1
    seed: int = 0

    def __post_init__(self):
        for name in ("q", "p", "n", "n_target", "delta_sparsity", "seed",
                     "group_dims", "ranks", "body_sizes", "arm_sizes"):
            v = getattr(self, name)      # a sequence stays a tuple
            ints = _integers(np.ravel(v), f"{name} = {v!r}: values", name)
            object.__setattr__(self, name, ints if np.ndim(v) else ints[0])
        if len(self.group_dims) != self.q:
            raise ValueError(f"need {self.q} group dims")
        if len(self.ranks) != self.q + 1:
            raise ValueError(f"need {self.q + 1} ranks")
        if len(self.body_sizes) != self.q or len(self.arm_sizes) != self.q:
            raise ValueError(f"need {self.q} body and arm sizes")
        if min(self.ranks) < 1 or self.ranks[0] > self.p:
            raise ValueError(f"ranks {self.ranks}: need 1 <= rank, and the "
                             f"mode-0 rank <= p")
        for r, w, d in zip(self.ranks[1:], self.body_sizes, self.group_dims):
            if r > w or w > d:
                raise ValueError(f"ranks {self.ranks}, body_sizes "
                                 f"{self.body_sizes}: need rank <= body size "
                                 f"<= group dim")
        if not all(1 <= a <= d for a, d in zip(self.arm_sizes,
                                               self.group_dims)):
            raise ValueError(f"arm_sizes {self.arm_sizes}: need 1 <= arm "
                             f"size <= group dim")
        if self.n <= self.p:
            raise ValueError(f"n = {self.n}: each observed group's least "
                             f"squares fit needs n > p = {self.p}")
        if self.n_target < 1:
            raise ValueError(f"n_target = {self.n_target}: need at least "
                             f"one target sample")
        if not 0 <= self.delta_sparsity <= self.p:
            raise ValueError(f"delta_sparsity = {self.delta_sparsity}: need "
                             f"0 <= delta_sparsity <= p = {self.p}")
        if self.design not in ("identity", "ar1"):
            raise ValueError(f"unknown design {self.design!r}")
        for name in ("noise_std", "delta_std", "signal_scale", "rank_margin"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)}: not finite")
        for name in ("noise_std", "delta_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} = {getattr(self, name)}: need "
                                 f"{name} >= 0")
        if not self.signal_scale > 0:
            raise ValueError(f"signal_scale = {self.signal_scale}: need "
                             f"signal_scale > 0, or no draw has the ranks")
        if not self.rank_margin < 1:
            raise ValueError(f"rank_margin = {self.rank_margin}: need "
                             f"rank_margin < 1, as sigma_r / sigma_1 <= 1")
        if not -1 < self.ar1_rho < 1:
            raise ValueError(f"ar1_rho = {self.ar1_rho}: need |ar1_rho| < 1")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed}: need seed >= 0")

    @classmethod
    def from_dict(cls, cfg):
        known = {k: v for k, v in cfg.items() if k in cls.__dataclass_fields__}
        unknown = set(cfg) - set(known)
        if unknown:
            raise ValueError(f"unknown scenario fields {sorted(unknown)}")
        return cls(**known)


@dataclass
class Scenario:
    """One realized replication: truth, pattern, training and target data."""

    config: ScenarioConfig
    rep: int
    truth: DenseTensor
    pattern: object
    train: GroupedDataset    # or GroupedStatistics
    targets: dict            # unobserved group -> (X, y)
    gammas: dict             # unobserved group -> target coefficient
    deltas: dict             # unobserved group -> sparse shift (zeros if none)


def default_pattern(cfg):
    """Body {1..w_t} per mode, arm t generated by {1..a_k} on modes k != t."""
    body = [range(1, w + 1) for w in cfg.body_sizes]
    arms = []
    for t in range(1, cfg.q + 1):
        arms.append([range(1, cfg.arm_sizes[k - 1] + 1)
                     for k in range(1, cfg.q + 1) if k != t])
    return build_pattern(cfg.group_dims, body, arms)


def _rng(cfg, stage, rep, idx=0):
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, stage, rep, idx]))


def _block_ok(block, rank, margin):
    s = np.linalg.svd(block, compute_uv=False)
    if s.size < rank or s[0] == 0.0:
        return False
    return s[rank - 1] / s[0] > margin


def generate_tensor(cfg, rep=0):
    """Random Tucker tensor whose observed blocks carry the full ranks.

    The core is iid standard normal times signal_scale and the factors are
    orthonormal. Draws are rejected until the body and joint blocks reach
    the configured ranks with singular value ratio above rank_margin, up
    to ten attempts.
    """
    rep = _index(rep, "rep", "replication indices")
    return _draw_tensor(cfg, rep, default_pattern(cfg))


def _draw_tensor(cfg, rep, pattern):
    """``generate_tensor`` on the scenario's pattern, built by the caller."""
    dims = (cfg.p,) + cfg.group_dims
    for attempt in range(10):
        rng = _rng(cfg, _STAGE_TENSOR, rep, attempt)
        core = cfg.signal_scale * rng.normal(size=cfg.ranks)
        factors = [np.linalg.qr(rng.normal(size=(d, r)))[0].T
                   for d, r in zip(dims, cfg.ranks)]
        truth = tucker_assemble(core, factors)

        body_idx = tuple(np.array(levels) - 1 for levels in pattern.body)
        body = truth.array[np.ix_(range(cfg.p), *body_idx)]
        ok = _block_ok(matricize(body, 0), cfg.ranks[0], cfg.rank_margin)
        for t, arm in enumerate(pattern.arm_subsets, start=1):
            if not ok:
                break
            ok = ok and _block_ok(matricize(body, t), cfg.ranks[t],
                                  cfg.rank_margin)
            joint_idx = _insert(tuple(np.array(levels) - 1 for levels in arm),
                                t, body_idx[t - 1])
            joint = truth.array[np.ix_(range(cfg.p), *joint_idx)]
            ok = ok and _block_ok(matricize(joint, t), cfg.ranks[t],
                                  cfg.rank_margin)
        if ok:
            return truth
    raise RuntimeError(
        f"could not draw a tensor meeting the rank margin in 10 attempts "
        f"(margin {cfg.rank_margin})")


def _ar1_factor(cfg):
    """Cholesky factor of the AR(1) feature covariance; None for identity."""
    if cfg.design != "ar1":
        return None
    lags = np.abs(np.subtract.outer(np.arange(cfg.p), np.arange(cfg.p)))
    return np.linalg.cholesky(cfg.ar1_rho ** lags)


def _draw_rows(rng, factor, sigma, coef, X, y):
    """Fill X (n, p) with iid normal rows, times factor' when given, and
    y with X coef + sigma e."""
    if factor is None:
        rng.standard_normal(out=X)
    else:
        np.matmul(rng.normal(size=X.shape), factor.T, out=X)
    np.matmul(X, coef, out=y)
    y += sigma * rng.normal(size=y.size)


def _draw_statistics(rng, factor, n, sigma, coef, xtx, xty, yty, below):
    """Fill xtx, xty and the one-entry yty with X'X, X'y and y'y of n
    rows X = Z C' (Z iid normal, C = factor or I) and y = X coef +
    sigma e, drawn from their joint law without the rows.

    By Bartlett's decomposition Z'Z = T T', T lower triangular with
    T_ii ~ sqrt(chi2(n - i)) for 0-based i and iid N(0, 1) entries
    below the diagonal (``below``, their flat indices), so X'X = A A'
    with A = C T, and Q = X A^-T has orthonormal columns. Given X,
    z = Q'e ~ N(0, I), so X'y = A A' coef + sigma A z, and y'y is the
    squared norm |A' coef + sigma z|^2 of y's projection Q'y plus that
    of its residual sigma (I - QQ') e, sigma^2 chi2(n - p) independent
    of z, so no solve is needed.
    """
    p = len(coef)
    T = np.zeros(p * p)
    T[below] = rng.standard_normal(below.size)
    T[::p + 1] = np.sqrt(rng.chisquare(n - np.arange(p)))
    T = T.reshape(p, p)
    A = T if factor is None else factor @ T
    np.matmul(A, A.T, out=xtx)
    np.matmul(xtx, coef, out=xty)
    z = rng.standard_normal(p)
    xty += sigma * (A @ z)
    fitted = coef @ A + sigma * z
    yty[:] = fitted @ fitted + sigma ** 2 * rng.chisquare(n - p)


def make_scenario(cfg, rep=0, statistics=False):
    """Draw one replication: the truth tensor, then one job per group.
    An observed group draws its rows (stream ``_STAGE_TRAIN``) or, with
    ``statistics``, its sufficient statistics (``_STAGE_STATS``). An
    unobserved group draws its shift delta, delta_sparsity coordinates
    of N(0, delta_std^2) (``_STAGE_DELTA``), then its target rows from
    gamma = fiber + delta (``_STAGE_TARGET``)."""
    rep = _index(rep, "rep", "replication indices")
    pattern = default_pattern(cfg)
    truth = _draw_tensor(cfg, rep, pattern)
    factor = _ar1_factor(cfg)
    observed, unobserved = pattern.observed_list(), pattern.unobserved_list()
    levels = np.subtract(observed + unobserved, 1)
    codes = np.ravel_multi_index(tuple(levels.T), pattern.space).tolist()
    G, U, n, p = len(observed), len(unobserved), cfg.n, cfg.p

    # Every output is allocated here and filled on the worker threads, so
    # no worker's malloc arena holds long-lived data (see _threads).
    if statistics:
        xtx, xty, yty = np.empty((G, p, p)), np.empty((G, p)), np.empty(G)
        below = np.flatnonzero(np.tri(p, k=-1, dtype=bool))
    else:
        X, y = np.empty((G, n, p)), np.empty((G, n))
    X_t, y_t = np.empty((U, cfg.n_target, p)), np.empty((U, cfg.n_target))
    gammas, deltas = np.empty((U, p)), np.zeros((U, p))

    def draw(share):
        for k in range(len(levels))[share]:
            fiber = truth.array[(slice(None), *levels[k])]
            if k >= G:
                u, s = k - G, cfg.delta_sparsity
                if s:
                    rng = _rng(cfg, _STAGE_DELTA, rep, codes[k])
                    support = rng.choice(p, size=s, replace=False)
                    deltas[u, support] = cfg.delta_std * rng.normal(size=s)
                np.add(fiber, deltas[u], out=gammas[u])
                _draw_rows(_rng(cfg, _STAGE_TARGET, rep, codes[k]), factor,
                           cfg.noise_std, gammas[u], X_t[u], y_t[u])
            elif statistics:
                _draw_statistics(_rng(cfg, _STAGE_STATS, rep, codes[k]),
                                 factor, n, cfg.noise_std, fiber, xtx[k],
                                 xty[k], yty[k:k + 1], below)
            else:
                _draw_rows(_rng(cfg, _STAGE_TRAIN, rep, codes[k]), factor,
                           cfg.noise_std, fiber, X[k], y[k])

    map_shares(draw, len(levels))
    if statistics:
        train = GroupedStatistics({g: (xtx[k], xty[k], yty[k], n)
                                   for k, g in enumerate(observed)})
    else:
        train = GroupedDataset(dict(zip(observed, zip(X, y))))
    return Scenario(cfg, rep, truth, pattern, train,
                    dict(zip(unobserved, zip(X_t, y_t))),
                    dict(zip(unobserved, gammas)),
                    dict(zip(unobserved, deltas)))
