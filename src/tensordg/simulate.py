"""Synthetic scenario generation for the Monte Carlo experiments.

A scenario couples a random low-Tucker-rank coefficient tensor with the
symmetric body-and-arm observation layout, Gaussian designs for every
observed group, and evaluation samples for the unobserved groups. Target
coefficients of unobserved groups can receive a sparse additive shift for
the transfer experiments.

Every group's sample is drawn from its own generator, seeded from the
scenario seed, the replication and the group, so the groups are drawn
in contiguous shares side by side on threads, one per usable CPU
(``_threads.map_shares``), and the draws are bitwise those of a serial
loop.
"""

from dataclasses import dataclass

import numpy as np

from ._threads import map_shares
from .patterns import _insert, _integers, build_pattern
from .regression import GroupedDataset
from .tensor import DenseTensor, matricize, tucker_assemble

# sub-stream labels for the counter-based seed derivation
_STAGE_TENSOR, _STAGE_TRAIN, _STAGE_TARGET, _STAGE_DELTA = 1, 2, 3, 4


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
    train: GroupedDataset
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
        np.random.SeedSequence([int(cfg.seed), stage, int(rep), int(idx)]))


def _group_code(space, g):
    code = 0
    for i, p in zip(g, space):
        code = code * p + (i - 1)
    return code


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
    pattern = default_pattern(cfg)
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


def _design_matrix(rng, factor, out):
    """Fill out (n, p) with iid normal rows, times factor' when given."""
    if factor is None:
        rng.standard_normal(out=out)
    else:
        np.matmul(rng.normal(size=out.shape), factor.T, out=out)


def inject_delta(coef, cfg, rng):
    """Sparse shift: delta_sparsity coordinates get N(0, delta_std^2)."""
    delta = np.zeros_like(coef)
    if cfg.delta_sparsity > 0:
        support = rng.choice(coef.size, size=cfg.delta_sparsity,
                             replace=False)
        delta[support] = cfg.delta_std * rng.normal(size=cfg.delta_sparsity)
    return coef + delta, delta


def generate_data(truth, pattern, cfg, rep=0, overrides=None):
    """Training data for observed groups, evaluation data for the rest.

    Evaluation responses follow the truth tensor unless ``overrides``
    supplies a replacement coefficient for a group.
    """
    overrides = overrides or {}
    factor = _ar1_factor(cfg)
    observed, unobserved = pattern.observed_list(), pattern.unobserved_list()

    def fiber(g):
        return truth.array[(slice(None),) + tuple(i - 1 for i in g)]

    # The samples are allocated here and filled on the worker threads, so
    # no worker's malloc arena holds long-lived data (see _threads).
    jobs = ([(g, _STAGE_TRAIN, fiber(g), np.empty((cfg.n, cfg.p)),
              np.empty(cfg.n)) for g in observed]
            + [(g, _STAGE_TARGET, overrides.get(g, fiber(g)),
                np.empty((cfg.n_target, cfg.p)), np.empty(cfg.n_target))
               for g in unobserved])

    def draw(share):
        for g, stage, coef, X, y in jobs[share]:
            rng = _rng(cfg, stage, rep, _group_code(pattern.space, g))
            _design_matrix(rng, factor, X)
            np.matmul(X, coef, out=y)
            y += cfg.noise_std * rng.normal(size=y.size)

    map_shares(draw, len(jobs))
    samples = [(X, y) for *_, X, y in jobs]
    train = dict(zip(observed, samples[:len(observed)]))
    targets = dict(zip(unobserved, samples[len(observed):]))
    return GroupedDataset(train), targets


def make_scenario(cfg, rep=0):
    """Draw tensor, sparse target shifts and all samples for one replication."""
    truth = generate_tensor(cfg, rep)
    pattern = default_pattern(cfg)
    gammas, deltas = {}, {}
    for g in pattern.unobserved_list():
        rng = _rng(cfg, _STAGE_DELTA, rep, _group_code(pattern.space, g))
        coef = truth.array[(slice(None),) + tuple(i - 1 for i in g)]
        gammas[g], deltas[g] = inject_delta(coef, cfg, rng)
    train, targets = generate_data(truth, pattern, cfg, rep, overrides=gammas)
    return Scenario(cfg, rep, truth, pattern, train, targets, gammas, deltas)
