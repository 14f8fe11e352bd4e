"""Tensor algebra: frozen hand values, loop oracles, algebraic properties."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensor_reference import dematricize
from tensordg import (DenseTensor, NonFiniteError, load_tensor, matricize,
                      mode_product, save_tensor, tucker_assemble)


def loop_matricize(arr, t):
    """Index-by-index oracle for the unfolding convention.

    Column j (1-based) collects the entries with
    j = 1 + sum_{l != t} (i_l - 1) * J_l, J_l = prod_{m < l, m != t} d_m.
    """
    dims = arr.shape
    strides = []
    for l in range(len(dims)):
        if l == t:
            strides.append(0)
            continue
        j = 1
        for m in range(l):
            if m != t:
                j *= dims[m]
        strides.append(j)
    ncols = int(np.prod([d for l, d in enumerate(dims) if l != t]))
    out = np.zeros((dims[t], ncols))
    for idx in np.ndindex(*dims):
        col = sum(idx[l] * strides[l] for l in range(len(dims)) if l != t)
        out[idx[t], col] = arr[idx]
    return out


def loop_mode_product(arr, mat, t):
    dims = list(arr.shape)
    dims[t] = mat.shape[1]
    out = np.zeros(dims)
    for idx in np.ndindex(*out.shape):
        acc = 0.0
        for s in range(arr.shape[t]):
            src = list(idx)
            src[t] = s
            acc += arr[tuple(src)] * mat[s, idx[t]]
        out[idx] = acc
    return out


def random_dims(rng, max_order=4, max_dim=4):
    order = rng.integers(2, max_order + 1)
    return tuple(int(d) for d in rng.integers(1, max_dim + 1, size=order))


# === frozen hand-derived values ===

def test_canonical_flat_position():
    arr = np.arange(12).reshape(2, 3, 2)
    T = DenseTensor(arr)
    # entry (2,3,1) sits at 1-based flat position 11
    assert T.ravel()[11 - 1] == arr[2 - 1, 3 - 1, 1 - 1]


def test_matricize_hand_example():
    arr = np.arange(12, dtype=float).reshape(2, 3, 2)
    M = matricize(arr, 1)
    assert M.shape == (3, 4)
    # entry (2,3,1), mode 1: row 3, column 1 + (2-1)*1 + (1-1)*2 = 2 (1-based)
    assert M[3 - 1, 2 - 1] == arr[1, 2, 0]
    # entry (1,2,2): column 1 + 0*1 + 1*2 = 3
    assert M[2 - 1, 3 - 1] == arr[0, 1, 1]


def test_matricize_column_order_lower_modes_fastest():
    arr = np.arange(8, dtype=float).reshape(2, 2, 2)
    M = matricize(arr, 2)
    # columns enumerate (i0, i1) with i0 fastest
    expected = np.column_stack([arr[0, 0], arr[1, 0], arr[0, 1], arr[1, 1]]).T
    assert np.array_equal(M, expected.T)


def test_mode_product_shape_and_values():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(2, 3, 2))
    E = rng.normal(size=(3, 5))
    out = mode_product(arr, E, 1)
    assert out.dims == (2, 5, 2)
    assert np.allclose(out.array, loop_mode_product(arr, E, 1))


def test_rank_one_assembly():
    u = np.array([[1.0, 2.0]])
    v = np.array([[3.0, 4.0, 5.0]])
    core = np.full((1, 1), 7.0)
    out = tucker_assemble(core, [u, v])
    assert np.allclose(out.array, 7.0 * np.outer([1, 2], [3, 4, 5]))


# === oracle agreement on random inputs ===

@pytest.mark.parametrize("seed", range(10))
def test_matricize_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    dims = random_dims(rng)
    arr = rng.normal(size=dims)
    for t in range(len(dims)):
        assert np.array_equal(matricize(arr, t), loop_matricize(arr, t))


@pytest.mark.parametrize("seed", range(10))
def test_mode_product_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    dims = random_dims(rng)
    arr = rng.normal(size=dims)
    t = int(rng.integers(0, len(dims)))
    E = rng.normal(size=(dims[t], int(rng.integers(1, 5))))
    assert np.allclose(mode_product(arr, E, t).array,
                       loop_mode_product(arr, E, t), atol=1e-12)


# === algebraic properties ===

dims_st = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


@given(dims=dims_st, seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_matricize_roundtrip(dims, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=dims)
    for t in range(len(dims)):
        back = dematricize(matricize(arr, t), t, dims)
        assert np.array_equal(back, arr)


@given(dims=dims_st, seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_unfolding_identity(dims, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=dims)
    for t in range(len(dims)):
        E = rng.normal(size=(dims[t], int(rng.integers(1, 4))))
        lhs = matricize(mode_product(arr, E, t), t)
        rhs = E.T @ matricize(arr, t)
        assert np.allclose(lhs, rhs, atol=1e-12)


@given(dims=dims_st, seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_mode_product_composition_same_mode(dims, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=dims)
    t = int(rng.integers(0, len(dims)))
    A = rng.normal(size=(dims[t], 3))
    B = rng.normal(size=(3, 2))
    lhs = mode_product(mode_product(arr, A, t), B, t)
    rhs = mode_product(arr, A @ B, t)
    assert np.allclose(lhs.array, rhs.array, atol=1e-12)


@given(dims=st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple),
       seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_mode_product_commutes_across_modes(dims, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=dims)
    s, t = rng.choice(len(dims), size=2, replace=False)
    s, t = int(s), int(t)
    A = rng.normal(size=(dims[s], 2))
    B = rng.normal(size=(dims[t], 3))
    lhs = mode_product(mode_product(arr, A, s), B, t)
    rhs = mode_product(mode_product(arr, B, t), A, s)
    assert np.allclose(lhs.array, rhs.array, atol=1e-12)


def test_tucker_ranks_of_assembled_tensor():
    rng = np.random.default_rng(5)
    core = rng.normal(size=(3, 2, 2))
    dims = (7, 5, 6)
    factors = [np.linalg.qr(rng.normal(size=(d, r)))[0].T
               for d, r in zip(dims, core.shape)]
    T = tucker_assemble(core, factors)
    ranks = tuple(int(np.linalg.matrix_rank(matricize(T, t)))
                  for t in range(T.order))
    assert ranks == (3, 2, 2)


# === serialization ===

def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    T = DenseTensor(rng.normal(size=(3, 2, 4)))
    path = tmp_path / "t.tns"
    save_tensor(T, path)
    back = load_tensor(path)
    assert back.dims == T.dims
    assert np.array_equal(back.array, T.array)


def test_load_rejects_length_mismatch(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_text("dims: 2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        load_tensor(path)


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_text("1.0 2.0\n")
    with pytest.raises(ValueError, match="dims"):
        load_tensor(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_values(tmp_path, token):
    path = tmp_path / "bad.tns"
    path.write_text(f"dims: 2 2\n1.0 {token} 3.0 4.0\n")
    with pytest.raises(NonFiniteError, match=re.escape(str(path))):
        load_tensor(path)
