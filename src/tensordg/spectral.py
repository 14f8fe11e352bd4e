"""Spectral rank and basis selection from per-group OLS estimates.

For each mode the stacked coefficient estimates form a Gram matrix whose
noise bias is removed with a plug-in correction; ranks are chosen by
thresholding eigenvalues and the leading eigenvectors give the column
space basis used by the completion step. The correction reads each
group fit's stored noise covariance (sigma2/n) G^-1 and its trace, so
no Gram is inverted here.
"""

import math
from dataclasses import dataclass, replace
from functools import partial

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


def _eig_desc(gram):
    eigval, eigvec = np.linalg.eigh(gram)
    return eigval[::-1], eigvec[:, ::-1]


def rank_threshold(spectral_norm, dim, n_bar, block_size, c=1.0):
    return c * math.sqrt(
        max(spectral_norm, 0.0) * (dim + math.log(n_bar))
        / (n_bar * block_size))


def _spectrum(gram, rule, block_size, rank=None):
    """ModeSpectrum (mode unset, -1) from one eigendecomposition of gram.

    ``rule`` maps the descending eigenvalues to the threshold. The rank
    is ``rank`` when given, else the count of eigenvalues at or above the
    threshold, floored at one and flagged via ``floored``.
    """
    gram = np.asarray(gram, dtype=float)
    if not np.all(np.isfinite(gram)):
        raise ValueError("second-moment matrix has non-finite entries")
    eigval, eigvec = _eig_desc(gram)
    lam = rule(eigval)
    floored = False
    if rank is None:
        rank = int(np.sum(eigval >= lam))
        floored = rank < 1
        rank = max(rank, 1)
    return ModeSpectrum(-1, gram, eigval, rank, eigvec[:, :rank],
                        lam, block_size, floored)


def _bound_threshold(eigval, n_bar, block_size, c):
    return rank_threshold(abs(eigval).max(initial=0.0), eigval.size, n_bar,
                          block_size, c)


def select_rank(gram, n_bar, block_size, c=1.0):
    """Threshold-rule rank: count of eigenvalues at or above the cut.

    Returns a ModeSpectrum with mode unset (-1); spectral_step fills it.
    The rank is floored at one, flagged via ``floored``.
    """
    return _spectrum(gram, partial(_bound_threshold, n_bar=n_bar,
                                   block_size=block_size, c=c), block_size)


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


def noise_floor(eigenvalues, coefficient_mode):
    """Per-mode default floor: calibrated multiples of the tail scale."""
    if coefficient_mode:
        return tail_floor(eigenvalues, FLOOR_SCALE_COEF, robust=True)
    return tail_floor(eigenvalues, FLOOR_SCALE_GROUP)


def noise_floor_rank(gram, coefficient_mode):
    """Rank selection with the data-driven noise-floor threshold.

    Counts eigenvalues at or above the floor; same return convention as
    select_rank. The floor is estimated from the bottom half of the
    spectrum, so the largest rank it can detect is ceil(dim/2).
    """
    return _spectrum(gram, partial(noise_floor,
                                   coefficient_mode=coefficient_mode), 0)


def spectral_step(est, pattern, c=None, rank_override=None):
    """ModeSpectrum for every mode 0..q.

    With c=None (the default) each rank comes from the noise-floor rule;
    a float c switches to the concentration-bound threshold with that
    constant. rank_override, when given, supplies one rank per mode and
    bypasses selection entirely (the basis is still the leading
    eigenvectors). Each mode Gram is decomposed once either way.
    """
    q = pattern.q
    if rank_override is not None and len(rank_override) != q + 1:
        raise ValueError(f"rank_override needs {q + 1} entries")
    out = []
    for t in range(q + 1):
        gram = mode_gram(est, pattern, t)
        size = len(pattern.observed) if t == 0 else len(pattern.cset_tuples(t))
        rank = None
        if rank_override is not None:
            rank = int(rank_override[t])
            if not 1 <= rank <= gram.shape[0]:
                raise ValueError(f"rank {rank} invalid for mode {t}")
        if c is None:
            rule = partial(noise_floor, coefficient_mode=t == 0)
        else:
            rule = partial(_bound_threshold, n_bar=est.n_bar,
                           block_size=size, c=c)
        out.append(replace(_spectrum(gram, rule, size, rank), mode=t))
    return out
