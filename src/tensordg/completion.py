"""Coefficient tensor completion from body and arm estimates.

The fit proceeds in three steps: per-group least squares on the observed
blocks, spectral selection of per-mode ranks and bases, then one linear
solve per mode that transports the body coefficients out along each arm,
on one cross-product per mode; the diagnostic reads each arm's Gram. The
result is a completed coefficient tensor covering every group in the
space, including combinations with no samples at all.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DimensionError
from .patterns import group_key, pattern_from_config, pattern_to_config
from .regression import GroupEstimates, fit_all
from .spectral import arm_blocks, floor_rank, spectral_step
from .tensor import DenseTensor, load_tensor, mode_product, save_tensor, \
    tucker_assemble

# conditioning limit for the per-mode transport systems
LOADING_COND_LIMIT = 1e10


@dataclass
class CompletionModel:
    """Fitted completion: per-mode bases and loadings plus the full tensor."""

    pattern: object
    ranks: tuple
    bases: list
    loadings: list
    core: DenseTensor
    tensor: DenseTensor
    diagnostics: dict

    @property
    def p(self):
        return self.tensor.dims[0]

    def coefficient(self, group):
        """Coefficient vector for one group, observed or not."""
        group = group_key(group)
        if len(group) != self.pattern.q:
            raise DimensionError(
                f"group {group} has {len(group)} coords, expected {self.pattern.q}")
        for i, p in zip(group, self.pattern.space):
            if not 1 <= i <= p:
                raise DimensionError(f"group {group} outside the space")
        return self.tensor.array[(slice(None),) + tuple(i - 1 for i in group)].copy()

    def predict(self, group, x):
        x = np.asarray(x, dtype=float)
        coef = self.coefficient(group)
        if x.shape[-1] != coef.size:
            raise DimensionError(
                f"feature dim {x.shape[-1]} does not match p={coef.size}")
        return x @ coef


def estimate_loading(t, cross, body, basis):
    """Solve the mode-t transport system on the selected basis.

    ``cross`` is C = M'M of the mode-t stack M and ``body`` indexes its
    joint (body-level) columns; the system is V'C[b,b]V L = V'C[b,:].
    Returns the loading matrix (rank x target dim) and the condition
    number of the inner system.
    """
    rhs = basis.T @ cross[body]
    inner = rhs[:, body] @ basis
    cond = float(np.linalg.cond(inner))
    if not np.isfinite(cond) or cond > LOADING_COND_LIMIT:
        raise ConditioningError(
            f"mode {t}: transport system condition {cond:.2e} exceeds "
            f"{LOADING_COND_LIMIT:.0e}", where=t)
    return np.linalg.solve(inner, rhs), cond


def _body_tensor(est, pattern):
    shape = tuple(len(levels) for levels in pattern.body)
    cols = est.coef[est.rows(pattern.body_groups())].T
    return DenseTensor(cols.reshape((-1,) + shape))


def fit_tensordg(ds, pattern, rank_override=None):
    """Fit the completion estimator on an observed-pattern dataset.

    ds is a GroupedDataset, or the GroupEstimates ``fit_all`` made from
    one, used as fitted. The spectral step and the transport solves read
    the same per-group fits. Each mode's rank comes from the noise-floor
    rule (``spectral.floor_rank``); rank_override bypasses it with fixed
    per-mode ranks.
    """
    est = ds if isinstance(ds, GroupEstimates) else fit_all(ds, pattern)
    spectra = spectral_step(est, pattern, rank_override=rank_override)
    arms = arm_blocks(est, pattern)
    stack = est.coef[est.rows(pattern.observed_list())]
    crosses = [stack.T @ stack] + [cross for cross, _ in arms]
    bodies = [slice(None)] + [np.asarray(b) - 1 for b in pattern.body]
    loadings, conds = [], []
    for t, (cross, body) in enumerate(zip(crosses, bodies)):
        loading, cond = estimate_loading(t, cross, body, spectra[t].basis)
        loadings.append(loading)
        conds.append(cond)

    core = _body_tensor(est, pattern)
    for t, spec in enumerate(spectra):
        core = mode_product(core, spec.basis, t)
    completed = tucker_assemble(core, loadings)

    warnings = [f"mode {s.mode}: rank floored to 1" for s in spectra
                if s.floored]
    diagnostics = {
        "spectral": [s.summary() for s in spectra],
        "loading_condition_numbers": conds,
        "generalizability": diagnose_generalizability(arms, pattern),
        "n_bar": float(est.n.mean()),
        "warnings": warnings,
    }

    return CompletionModel(pattern, tuple(s.rank for s in spectra),
                           [s.basis for s in spectra], loadings, core,
                           completed, diagnostics)


# Floor multipliers for the two diagnostic blocks. The arm Gram spans all
# group levels, so its corrected tail spreads wider on the positive side
# than the body-level joint Gram's and needs a larger multiple to stay
# below the floor under noise.
DIAG_FLOOR_JOINT = 2.0
DIAG_FLOOR_ARM = 4.5


def diagnose_generalizability(blocks, pattern):
    """Compare joint-block and arm-block ranks mode by mode.

    The completion is only identified when, for every mode, the arm block
    spans no more directions than the joint block already shows. The
    joint block is the arm block's body-level columns, so each arm Gram
    of ``blocks`` (``spectral.arm_blocks``) gives both bias-corrected
    Grams, whose ranks come from the noise-floor rule, each with a floor
    calibrated to its own tail geometry. Any mode where the ranks
    disagree flags the fit as inconsistent.
    """
    modes = []
    for t, (_, gram) in enumerate(blocks, start=1):
        body = np.asarray(pattern.body[t - 1]) - 1
        joint_eig, arm_eig = (np.linalg.eigvalsh(block)[::-1]
                              for block in (gram[np.ix_(body, body)], gram))
        joint_rank = floor_rank(joint_eig, DIAG_FLOOR_JOINT)[0]
        arm_rank = floor_rank(arm_eig, DIAG_FLOOR_ARM)[0]
        modes.append({
            "mode": t,
            "joint_rank": int(joint_rank),
            "arm_rank": int(arm_rank),
            "joint_eigenvalues": [float(v) for v in joint_eig],
            "arm_eigenvalues": [float(v) for v in arm_eig],
            "consistent": bool(joint_rank == arm_rank),
        })
    return {"consistent": all(m["consistent"] for m in modes),
            "modes": modes}


def save_model(model, path):
    """Write the completed tensor as text plus a JSON sidecar at path.json."""
    save_tensor(model.tensor, path)
    sidecar = {
        "pattern": pattern_to_config(model.pattern),
        "ranks": [int(r) for r in model.ranks],
        "bases": [b.tolist() for b in model.bases],
        "loadings": [l.tolist() for l in model.loadings],
        "core_dims": [int(d) for d in model.core.dims],
        "core": [float(v) for v in model.core.ravel()],
        "diagnostics": model.diagnostics,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)
        fh.write("\n")


def load_model(path):
    tensor = load_tensor(path)
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    pattern = pattern_from_config(sidecar["pattern"])
    core = DenseTensor.from_flat(sidecar["core_dims"], sidecar["core"])
    return CompletionModel(
        pattern, tuple(sidecar["ranks"]),
        [np.array(b) for b in sidecar["bases"]],
        [np.array(l) for l in sidecar["loadings"]],
        core, tensor, sidecar["diagnostics"])
