"""Spectral rank and basis selection from per-group OLS estimates.

For each mode the stacked coefficient estimates form a Gram matrix whose
noise bias is removed with a plug-in correction. The correction reads
each group fit's stored noise covariance (sigma2/n) G^-1 and its trace,
so no Gram is inverted here. One rule picks every rank: the count of
eigenvalues at or above a noise floor estimated from the spectrum's own
bottom half (``floor_rank``). The leading eigenvectors give the column
space basis used by the completion step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .patterns import _integers


@dataclass(frozen=True)
class ModeSpectrum:
    """Rank selection output for one mode."""

    mode: int
    gram: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    basis: np.ndarray
    threshold: float
    block_size: int
    floored: bool

    def eigen_gap(self):
        """Smallest gap above the selected rank cut, lam_r - lam_{r+1}."""
        eig = self.eigenvalues
        padded = np.append(eig, 0.0)
        gaps = padded[:self.rank] - padded[1:self.rank + 1]
        return float(gaps.min())

    def summary(self):
        return {
            "mode": self.mode,
            "rank": self.rank,
            "threshold": float(self.threshold),
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "eigen_gap": self.eigen_gap(),
            "block_size": self.block_size,
            "rank_floored": self.floored,
        }


def stack_block(est, tuples, t, levels):
    """Cross-product and bias-corrected Gram of a mode-t block.

    Column j of the block M stacks the coefficients of the groups of
    ``est`` that put ``levels[j]`` at mode t and one of ``tuples`` on the
    other modes. Returns C = M'M and (C - diag(sum of noise_trace per
    column)) / #tuples, symmetrized.
    """
    rest = np.repeat(np.array(tuples, dtype=int)[:, None], len(levels), 1)
    rows = est.rows(np.insert(rest, t - 1, levels, axis=2))
    mat = est.coef[rows].transpose(0, 2, 1).reshape(-1, len(levels))
    diag = est.noise_trace[rows].sum(axis=0)
    cross = mat.T @ mat
    gram = (cross - np.diag(diag)) / len(tuples)
    return cross, (gram + gram.T) / 2.0


def arm_blocks(est, pattern):
    """stack_block of each arm t = 1..q: its tuples against every mode-t
    level. Its body-level columns are the joint block."""
    return [stack_block(est, pattern.arm_tuples(t), t,
                        range(1, pattern.space[t - 1] + 1))
            for t in range(1, pattern.q + 1)]


def mode_gram(est, pattern, t):
    """Bias-corrected second-moment matrix for mode t.

    Mode 0 averages the observed-group estimates' outer products less
    their noise covariances (summed in place); modes 1..q stack the C_t
    columns by body level, trace-corrected (stack_block).
    """
    if t == 0:
        rows = est.rows(pattern.observed_list())
        stack = est.coef[rows]
        picked = len(rows) == len(est.groups) or np.isin(  # all rows: no mask
            np.arange(len(est.groups)), rows)[:, None, None]
        corr = est.noise_cov.sum(axis=0, where=picked)
        gram = (stack.T @ stack - corr) / len(rows)
        return (gram + gram.T) / 2.0

    if not 1 <= t <= pattern.q:
        raise ValueError(f"mode {t} out of range 0..{pattern.q}")
    return stack_block(est, pattern.cset_tuples(t), t,
                       pattern.body[t - 1])[1]


# Multipliers for the noise-floor threshold, calibrated on the reference
# design. The coefficient mode averages many more estimates than the group
# modes, so its corrected tail is tighter relative to its extremes and the
# floor needs a larger multiple of the tail scale.
FLOOR_SCALE_COEF = 3.4
FLOOR_SCALE_GROUP = 2.0


def tail_floor(eigenvalues, multiplier, robust=False):
    """Detection threshold estimated from the spectrum's own noise tail.

    The bottom half of a bias-corrected spectrum carries no signal when
    the rank is below ceil(dim/2), so its magnitudes estimate the noise
    level directly. The floor is a multiple of that scale (median when
    robust, mean otherwise) and never drops below a relative epsilon so
    that noiseless spectra with exact zero tails still threshold cleanly.
    """
    eig = np.asarray(eigenvalues, dtype=float)
    if eig.size < 2:
        raise ValueError("need at least two eigenvalues")
    tail = np.abs(eig[math.ceil(eig.size / 2):])
    center = np.median(tail) if robust else np.mean(tail)
    return max(multiplier * float(center),
               1e-8 * float(np.abs(eig).max(initial=0.0)))


def floor_rank(eigenvalues, multiplier, robust=False):
    """(rank, floor, floored) of a descending spectrum.

    The rank counts the eigenvalues at or above ``tail_floor``, floored
    at one; ``floored`` says the count was zero. A single eigenvalue has
    no tail to estimate a floor from: it is its own floor, so the rank is
    one and not floored. The largest rank the floor can detect is
    ceil(dim/2).
    """
    eig = np.asarray(eigenvalues, dtype=float)
    if eig.size == 1:
        return 1, float(eig[0]), False
    lam = tail_floor(eig, multiplier, robust)
    rank = int(np.sum(eig >= lam))
    return max(rank, 1), lam, rank < 1


def mode_spectrum(est, pattern, t, rank=None):
    """ModeSpectrum of mode t from one eigendecomposition of its Gram.

    The rank is ``rank`` when given, else the noise-floor count: the
    robust floor at FLOOR_SCALE_COEF on the coefficient mode, the mean
    floor at FLOOR_SCALE_GROUP on the group modes. The basis is the
    leading ``rank`` eigenvectors either way.
    """
    gram = mode_gram(est, pattern, t)
    if not np.all(np.isfinite(gram)):
        raise ValueError("second-moment matrix has non-finite entries")
    eigval, eigvec = np.linalg.eigh(gram)
    eigval, eigvec = eigval[::-1], eigvec[:, ::-1]
    if t == 0:
        size = len(pattern.observed)
        count, lam, floored = floor_rank(eigval, FLOOR_SCALE_COEF, True)
    else:
        size = len(pattern.cset_tuples(t))
        count, lam, floored = floor_rank(eigval, FLOOR_SCALE_GROUP)
    if rank is None:
        rank = count
    else:
        (rank,) = _integers((rank,), f"mode {t} rank {rank}: ranks", t)
        floored = False
        if not 1 <= rank <= gram.shape[0]:
            raise ValueError(f"rank {rank} invalid for mode {t}")
    return ModeSpectrum(t, gram, eigval, rank, eigvec[:, :rank], lam, size,
                        floored)


def spectral_step(est, pattern, rank_override=None):
    """ModeSpectrum for every mode 0..q, each from ``mode_spectrum``.

    rank_override, when given, supplies one rank per mode and bypasses
    the noise-floor count (the basis is still the leading eigenvectors).
    Each mode Gram is decomposed once either way.
    """
    q = pattern.q
    if rank_override is None:
        rank_override = (None,) * (q + 1)
    elif len(rank_override) != q + 1:
        raise ValueError(f"rank_override needs {q + 1} entries")
    return [mode_spectrum(est, pattern, t, rank)
            for t, rank in enumerate(rank_override)]
