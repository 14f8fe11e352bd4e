"""The inverse of ``tensordg.matricize``, for the tests that check it."""

import numpy as np


def dematricize(mat, t, dims):
    """Fold a mode-t matricization back into an array of shape dims.

    Undoes ``matricize``: the columns enumerate the non-t modes with the
    lower-numbered ones fastest, which is Fortran order after mode t.
    """
    rest = tuple(d for k, d in enumerate(dims) if k != t)
    arr = np.asarray(mat, dtype=float).reshape((dims[t],) + rest, order="F")
    return np.moveaxis(arr, 0, t)
