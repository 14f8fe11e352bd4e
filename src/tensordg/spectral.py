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

from .patterns import _insert


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


def stack_block(fits, tuples, t, levels):
    """Mode-t block of stacked estimates and its bias-corrected Gram.

    Column j stacks the coefficients of the groups that put ``levels[j]``
    at mode t and one of ``tuples`` on the other modes. Returns that
    matrix M and (M'M - diag(sum of noise_trace per column)) / #tuples,
    symmetrized.
    """
    cols, diag = [], []
    for lev in levels:
        block = [fits[_insert(rest, t, lev)] for rest in tuples]
        cols.append(np.concatenate([fit.coef for fit in block]))
        diag.append(sum(fit.noise_trace for fit in block))
    mat = np.column_stack(cols)
    gram = (mat.T @ mat - np.diag(diag)) / len(tuples)
    return mat, (gram + gram.T) / 2.0


def mode_gram(est, pattern, t):
    """Bias-corrected second-moment matrix for mode t.

    Mode 0 stacks all observed-group estimates and subtracts their
    averaged noise covariance; modes 1..q stack the C_t block columns by
    body level and subtract a diagonal trace correction (stack_block).
    """
    fits = est.tilde
    if t == 0:
        observed = pattern.observed_list()
        rows = np.vstack([fits[g].coef for g in observed])
        corr = sum(fits[g].noise_cov for g in observed)
        gram = (rows.T @ rows - corr) / len(observed)
        return (gram + gram.T) / 2.0

    if not 1 <= t <= pattern.q:
        raise ValueError(f"mode {t} out of range 0..{pattern.q}")
    return stack_block(fits, pattern.cset_tuples(t), t,
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
        rank, floored = int(rank), False
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
