"""``repro.graph.quantize.int_matmul``: the one integer matrix product,
held to an int64 reference reduced mod 2**32 across the chunk edge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.quantize import _K_CHUNK, int_matmul


def _reference(a, b):
    """int64 product (cannot overflow below K = 2**49), wrapped to int32."""
    return np.matmul(a.astype(np.int64), b.astype(np.int64)).astype(np.int32)


def _check(a, b):
    got = int_matmul(a, b)
    assert got.dtype == np.int32
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, _reference(a, b))
    return got


@st.composite
def operands(draw):
    """``(a, b)`` as the callers pass them: int8 or float32 holding int8
    values, ``a`` a vector / matrix / stack of matrices, ``b`` a matrix
    or a matching stack."""
    k = draw(st.one_of(
        st.sampled_from([1, 1023, 1024, 1025, 2048, 50176]),
        st.integers(1, 3 * _K_CHUNK),
    ))
    small = 3 if k > 4 * _K_CHUNK else 6
    m, n = draw(st.integers(1, small)), draw(st.integers(1, small))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    a_shape = draw(st.sampled_from([(k,), (m, k)])) if not batch else batch + (m, k)
    b_shape = draw(st.sampled_from([(k, n), batch + (k, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # saturated operands: the exactness bound is tight
        a = rng.choice(np.array([-128, 127], np.int8), size=a_shape)
        b = rng.choice(np.array([-128, 127], np.int8), size=b_shape)
    else:
        a = rng.integers(-128, 128, size=a_shape, dtype=np.int8)
        b = rng.integers(-128, 128, size=b_shape, dtype=np.int8)
    if draw(st.booleans()):
        a = a.astype(np.float32)
    if draw(st.booleans()):
        b = b.astype(np.float32)
    return a, b


@settings(max_examples=120, deadline=None)
@given(operands())
def test_matches_int64_reference(pair):
    _check(*pair)


@pytest.mark.parametrize("k", [1, 1023, 1024, 1025, 2048, 50176])
@pytest.mark.parametrize("x,w", [(-128, -128), (127, -128), (127, 127)])
def test_saturated_operands(k, x, w):
    """Every partial sum sits on the bound: 1024 * 128 * 128 == 2**24."""
    got = _check(np.full((2, k), x, np.int8), np.full((k, 3), w, np.int8))
    assert (got == np.int32(k * x * w)).all()


@pytest.mark.parametrize("edge", [_K_CHUNK - 1, _K_CHUNK, _K_CHUNK + 1])
def test_sign_flip_at_the_chunk_edge(edge):
    k = 2 * _K_CHUNK + 1
    a = np.full((2, k), -128, np.int8)
    b = np.full((k, 2), -128, np.int8)
    b[edge:, 0] = 127                   # one flip, exactly at the edge
    b[edge::2, 1] = 127                 # alternating from the edge on
    _check(a, b)
    _check(a[0], b.astype(np.float32))


def test_int32_wrap_beyond_131072():
    """131073 * 2**14 = 2**31 + 2**14: past int32, like an int32 matmul."""
    k = 131073
    got = _check(np.full((1, k), -128, np.int8), np.full((k, 1), -128, np.int8))
    assert got[0, 0] == -2**31 + 2**14


def test_stacked_form_is_viewable_as_bytes():
    """``_exec_batch``: one (1, rows) @ (rows, cols) product per iteration,
    stored through ``.view(np.int8)``."""
    rng = np.random.default_rng(7)
    m, rows, cols = 5, _K_CHUNK + 40, 8
    vec = rng.integers(-128, 128, size=(m, rows), dtype=np.int8)
    mats = rng.integers(-128, 128, size=(m, rows, cols), dtype=np.int8)
    res = int_matmul(vec[:, None, :], mats)[:, 0, :]
    assert res.flags.c_contiguous and res.dtype == np.int32
    np.testing.assert_array_equal(
        res,
        np.einsum("mr,mrc->mc", vec.astype(np.int32), mats.astype(np.int32)),
    )
    assert res.view(np.int8).shape == (m, 4 * cols)


def test_views_as_the_simulator_passes_them():
    """A stride-0 broadcast vector, a strided window over local memory
    and a ``CIM_CFG``-narrowed slice of a float32 register."""
    rng = np.random.default_rng(11)
    lm = rng.integers(-128, 128, size=4096, dtype=np.int8)
    reg = rng.integers(-128, 128, size=(96, 24), dtype=np.int8).astype(np.float32)
    window = np.lib.stride_tricks.as_strided(lm[5:], shape=(7, 64), strides=(3, 1))
    _check(window, reg[:64, :17])
    _check(np.broadcast_to(lm[:64], (7, 64)), reg[:64, :17])
    _check(lm[9:9 + 96], reg)
