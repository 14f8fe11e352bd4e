"""Dense tensor algebra: matricization, mode products, Tucker assembly.

Conventions used throughout the package:

* modes are numbered 0..q, mode 0 being the coefficient axis;
* entry indices in the public API are 1-based;
* the flat (canonical) order of a tensor is lexicographic with the LAST
  mode varying fastest, i.e. numpy C order;
* matricization along mode t puts the mode-t index on rows and enumerates
  the remaining indices on columns with lower-numbered modes varying
  fastest, so column j (1-based) of the mode-t matricization holds the
  entries with j = 1 + sum_{l != t} (i_l - 1) * J_l where
  J_l = prod_{m < l, m != t} d_m.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError


@dataclass(frozen=True)
class DenseTensor:
    """Immutable dense tensor of order q+1."""

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=float)
        if arr.ndim < 1:
            raise DimensionError("tensor order must be at least 1")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def dims(self):
        return self.array.shape

    @property
    def order(self):
        return self.array.ndim

    def ravel(self):
        """Entries in canonical (last mode fastest) order."""
        return self.array.ravel(order="C")

    @classmethod
    def from_flat(cls, dims, values):
        values = np.asarray(values, dtype=float)
        if values.size != int(np.prod(dims)):
            raise DimensionError(
                f"expected {int(np.prod(dims))} values for dims {tuple(dims)}, "
                f"got {values.size}")
        return cls(values.reshape(tuple(dims), order="C"))


def _as_array(tensor):
    if isinstance(tensor, DenseTensor):
        return tensor.array
    return np.asarray(tensor, dtype=float)


def matricize(tensor, t):
    """Mode-t matricization, shape (d_t, prod of the other dims).

    Column ordering follows the convention in the module docstring: among
    the non-t modes, lower-numbered ones vary fastest. That matches Fortran
    order after moving mode t to the front.
    """
    arr = _as_array(tensor)
    if not 0 <= t < arr.ndim:
        raise DimensionError(f"mode {t} out of range for order {arr.ndim}")
    return np.moveaxis(arr, t, 0).reshape(arr.shape[t], -1, order="F")


def mode_product(tensor, mat, t):
    """Mode-t product: contracts the mode-t index against rows of ``mat``.

    ``mat`` has shape (d_t, m); the result has dim m along mode t and
    satisfies matricize(result, t) == mat.T @ matricize(tensor, t).
    """
    arr = _as_array(tensor)
    mat = np.asarray(mat, dtype=float)
    if not 0 <= t < arr.ndim:
        raise DimensionError(f"mode {t} out of range for order {arr.ndim}")
    if mat.ndim != 2 or mat.shape[0] != arr.shape[t]:
        raise DimensionError(
            f"factor shape {mat.shape} does not match dim {arr.shape[t]} "
            f"of mode {t}")
    out = np.tensordot(arr, mat, axes=(t, 0))
    return DenseTensor(np.moveaxis(out, -1, t))


def tucker_assemble(core, factors):
    """Apply one factor per mode: core x_0 F_0 x_1 F_1 ...

    Factor t has shape (core dim t, output dim t).
    """
    arr = _as_array(core)
    if len(factors) != arr.ndim:
        raise DimensionError(
            f"expected {arr.ndim} factors, got {len(factors)}")
    out = DenseTensor(arr)
    for t, fac in enumerate(factors):
        out = mode_product(out, fac, t)
    return out


def save_tensor(tensor, path):
    """Write a tensor as text: a dims header line, then canonical entries."""
    tensor = tensor if isinstance(tensor, DenseTensor) else DenseTensor(tensor)
    with open(path, "w") as fh:
        fh.write("dims: " + " ".join(str(d) for d in tensor.dims) + "\n")
        flat = tensor.ravel()
        for start in range(0, flat.size, 8):
            chunk = flat[start:start + 8]
            fh.write(" ".join(repr(float(v)) for v in chunk) + "\n")


def load_tensor(path):
    """Read the text format written by :func:`save_tensor`.

    Rejects inputs whose value count disagrees with the dims line, and
    NaN or infinite values.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("dims:"):
            raise ValueError(f"{path}: missing 'dims:' header line")
        try:
            dims = tuple(int(tok) for tok in header[len("dims:"):].split())
        except ValueError as exc:
            raise ValueError(f"{path}: malformed dims line") from exc
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"{path}: invalid dims {dims}")
        body = fh.read().split()
    expected = int(np.prod(dims))
    if len(body) != expected:
        raise ValueError(
            f"{path}: expected {expected} values for dims {dims}, "
            f"found {len(body)}")
    values = np.array([float(tok) for tok in body])
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{path}: tensor holds non-finite values")
    return DenseTensor.from_flat(dims, values)
