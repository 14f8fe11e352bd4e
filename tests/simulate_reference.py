"""Reference scenario draw: the truth, a serial shift loop, then
``generate_data``.

``make_scenario`` here is the package's draw as it was before every
group was drawn in one job list: each unobserved group's shift drawn in
a serial loop by ``inject_delta``, then the shifted coefficients passed
as ``overrides`` to ``generate_data``, which drew the training data and
the targets. The tests require the package's ``make_scenario`` to equal
it bit for bit.
"""

import numpy as np

from tensordg._threads import map_shares
from tensordg.regression import GroupedDataset, GroupedStatistics
from tensordg.simulate import (_STAGE_DELTA, _STAGE_STATS, _STAGE_TARGET,
                               _STAGE_TRAIN, Scenario, _ar1_factor,
                               _draw_statistics, _draw_tensor,
                               default_pattern)


def _rng(cfg, stage, rep, idx=0):
    return np.random.default_rng(
        np.random.SeedSequence([int(cfg.seed), stage, int(rep), int(idx)]))


def _group_code(space, g):
    code = 0
    for i, p in zip(g, space):
        code = code * p + (i - 1)
    return code


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


def generate_data(truth, pattern, cfg, rep=0, overrides=None,
                  statistics=False):
    """Training data for observed groups, evaluation data for the rest.

    The training data are rows, a GroupedDataset, or with ``statistics``
    each group's (X'X, X'y, y'y, n), a GroupedStatistics, drawn on a
    stream of their own. Evaluation responses follow the truth tensor
    unless ``overrides`` supplies a replacement coefficient for a group.
    """
    overrides = overrides or {}
    factor = _ar1_factor(cfg)
    observed, unobserved = pattern.observed_list(), pattern.unobserved_list()

    def fiber(g):
        return truth.array[(slice(None),) + tuple(i - 1 for i in g)]

    # The samples are allocated here and filled on the worker threads, so
    # no worker's malloc arena holds long-lived data (see _threads).
    if statistics:
        G, p = len(observed), cfg.p
        xtx, xty, yty = np.empty((G, p, p)), np.empty((G, p)), np.empty(G)
        train = [(xtx[k], xty[k], yty[k:k + 1]) for k in range(G)]
        below = np.flatnonzero(np.tri(p, k=-1, dtype=bool))
    else:
        train = [(np.empty((cfg.n, cfg.p)), np.empty(cfg.n))
                 for _ in observed]
    stage = _STAGE_STATS if statistics else _STAGE_TRAIN
    jobs = ([(g, stage, fiber(g), out) for g, out in zip(observed, train)]
            + [(g, _STAGE_TARGET, overrides.get(g, fiber(g)),
                (np.empty((cfg.n_target, cfg.p)), np.empty(cfg.n_target)))
               for g in unobserved])

    def draw(share):
        for g, stage, coef, out in jobs[share]:
            rng = _rng(cfg, stage, rep, _group_code(pattern.space, g))
            if stage == _STAGE_STATS:
                _draw_statistics(rng, factor, cfg.n, cfg.noise_std, coef,
                                 *out, below)
            else:
                X, y = out
                _design_matrix(rng, factor, X)
                np.matmul(X, coef, out=y)
                y += cfg.noise_std * rng.normal(size=y.size)

    map_shares(draw, len(jobs))
    targets = dict(zip(unobserved, [job[3] for job in jobs[len(observed):]]))
    if statistics:
        return GroupedStatistics({g: (xtx[k], xty[k], yty[k], cfg.n)
                                  for k, g in enumerate(observed)}), targets
    return GroupedDataset(dict(zip(observed, train))), targets


def make_scenario(cfg, rep=0, statistics=False):
    """Draw tensor, sparse target shifts and all samples for one
    replication; with ``statistics`` the training data are each observed
    group's sufficient statistics rather than its rows."""
    pattern = default_pattern(cfg)
    truth = _draw_tensor(cfg, rep, pattern)
    gammas, deltas = {}, {}
    for g in pattern.unobserved_list():
        rng = _rng(cfg, _STAGE_DELTA, rep, _group_code(pattern.space, g))
        coef = truth.array[(slice(None),) + tuple(i - 1 for i in g)]
        gammas[g], deltas[g] = inject_delta(coef, cfg, rng)
    train, targets = generate_data(truth, pattern, cfg, rep, gammas,
                                   statistics)
    return Scenario(cfg, rep, truth, pattern, train, targets, gammas, deltas)
