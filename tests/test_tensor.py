"""Autodiff kernels against central finite differences plus the freeze and
no_grad contracts; erf, GELU and layer_norm against their scipy / ndarray.mean
formulas, bitwise."""

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from tinypeft import tensor as T
from tinypeft.errors import NumericError, ShapeError
from tinypeft.rng import RngState
from tinypeft.tensor import Parameter, Tensor, backward

from gradcheck import (
    check_op, matmul, mul, numeric_grad, relative_grad_error, reshape, softmax, tmean, tsum,
)

rng = np.random.default_rng(11)


def randf(*shape):
    return rng.standard_normal(shape).astype(np.float32)


# -- per-kernel gradient oracles ---------------------------------------------


def test_add_grad():
    check_op(T.add, [randf(3, 4), randf(3, 4)])


def test_add_broadcast_grad():
    # bias-style broadcast must sum gradients over the broadcast axes
    check_op(T.add, [randf(2, 3, 4), randf(4)])


def test_mul_grad():
    check_op(mul, [randf(3, 4), randf(3, 4)])


def test_matmul_grad():
    check_op(matmul, [randf(3, 4), randf(4, 5)])


def test_batched_matmul_grad():
    check_op(matmul, [randf(2, 3, 4), randf(2, 4, 5)])


def test_transpose_grad():
    check_op(lambda a: T.transpose(a, 0, 1), [randf(3, 4)])


def test_narrow_grad():
    check_op(lambda a: T.narrow(a, 1, 1, 2), [randf(3, 4)])


def test_reshape_grad():
    check_op(lambda a: reshape(a, (4, 3)), [randf(3, 4)])


def test_softmax_grad():
    check_op(lambda a: softmax(a, axis=-1), [randf(3, 5)])


def test_gelu_grad():
    check_op(T.gelu, [randf(4, 4)])


def test_layer_norm_grad():
    x, g, b = randf(3, 8), randf(8), randf(8)
    check_op(lambda a, gg, bb: T.layer_norm(a, gg, bb), [x, g, b])


def test_sum_mean_grad():
    check_op(tsum, [randf(3, 4)])
    check_op(tmean, [randf(3, 4)])


def test_embedding_grad():
    table = randf(10, 4)
    ids = np.array([[1, 3, 3, 7]])

    t = Tensor(table, requires_grad=True)
    out = T.embedding(t, ids)
    w = np.random.default_rng(0).standard_normal(out.shape).astype(np.float32)
    backward(tsum(mul(out, Tensor(w))))

    def f():
        o = T.embedding(Tensor(table), ids)
        return float((o.data.astype(np.float64) * w).sum())

    num = numeric_grad(f, table)
    assert relative_grad_error(t.grad, num) < 1e-3


def test_cross_entropy_grad():
    logits = randf(6, 5)
    targets = np.array([0, 2, -1, 4, 1, -1])  # two masked rows

    lt = Tensor(logits, requires_grad=True)
    backward(T.cross_entropy(lt, targets))

    def f():
        return float(T.cross_entropy(Tensor(logits), targets).data)

    num = numeric_grad(f, logits)
    assert relative_grad_error(lt.grad, num) < 1e-3
    # masked rows contribute exactly nothing
    assert np.all(lt.grad[2] == 0.0) and np.all(lt.grad[5] == 0.0)


# -- kernel forward examples -------------------------------------------------


def test_softmax_rows_normalize():
    out = softmax(Tensor(randf(4, 7)), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-5)


def test_gelu_known_values():
    # exact gelu: x * Phi(x); Phi(0)=0.5, gelu(0)=0
    out = T.gelu(Tensor(np.array([0.0, 1.0, -1.0], dtype=np.float32)))
    np.testing.assert_allclose(out.data, [0.0, 0.8413447, -0.15865526], atol=1e-6)


def test_layer_norm_zero_mean_unit_var():
    x = Tensor(randf(5, 16))
    out = T.layer_norm(x, Tensor(np.ones(16, np.float32)),
                       Tensor(np.zeros(16, np.float32)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_cross_entropy_uniform_logits_is_log_v():
    logits = Tensor(np.zeros((3, 50), dtype=np.float32))
    loss = T.cross_entropy(logits, np.array([1, 2, 3]))
    assert abs(loss.item() - np.log(50)) < 1e-5


def test_cross_entropy_all_masked_raises():
    with pytest.raises(ShapeError):
        T.cross_entropy(Tensor(randf(2, 4)), np.array([-1, -1]))


def test_cross_entropy_nonfinite_raises():
    bad = np.full((2, 4), np.nan, dtype=np.float32)
    with pytest.raises(NumericError):
        T.cross_entropy(Tensor(bad), np.array([0, 1]))


def test_dropout_identity_at_p0_and_scaling():
    x = Tensor(randf(100, 10))
    assert T.dropout_mask(x.shape, 0.0, RngState(0)) is None  # the kernel skips the mul
    kept = x.data * T.dropout_mask(x.shape, 0.5, RngState(0))
    # inverted dropout: survivors are scaled by 1/(1-p)
    nz = kept[kept != 0.0]
    np.testing.assert_allclose(nz, (x.data * 2.0)[kept != 0.0], rtol=1e-6)


def test_dropout_deterministic_under_seed():
    x = Tensor(randf(20, 20))
    a = x.data * T.dropout_mask(x.shape, 0.3, RngState(9))
    b = x.data * T.dropout_mask(x.shape, 0.3, RngState(9))
    np.testing.assert_array_equal(a, b)


# -- graph and parameter contracts -------------------------------------------


def test_backward_accumulates_through_shared_node():
    x = Tensor(np.array([[2.0]], dtype=np.float32), requires_grad=True)
    y = T.linear(x, x)  # x @ x: dy/dx = 2x through the input and the weight
    backward(tsum(y))
    np.testing.assert_allclose(x.grad, [[4.0]])


def test_add_of_itself_has_gradient_two():
    x = Tensor(randf(3), requires_grad=True)
    backward(tsum(T.add(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_parents_fed_one_buffer_get_separate_gradients():
    # add's backward hands the same upstream array to both parents
    a, b = Tensor(randf(2, 3), requires_grad=True), Tensor(randf(2, 3), requires_grad=True)
    backward(tsum(T.add(a, b)))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3), dtype=np.float32))


def test_no_grad_blocks_tape():
    x = Tensor(randf(2, 2), requires_grad=True)
    with T.no_grad():
        y = T.gelu(x)
    assert y._parents == () and y._backward is None


def test_frozen_parameter_gets_no_grad():
    p = Parameter(randf(3, 3), "w")
    p.freeze()
    out = T.linear(Tensor(randf(2, 3)), p)
    backward(tsum(out))
    assert p.grad is None
    live = Parameter(p.data, "w")
    out = T.linear(Tensor(randf(2, 3)), live)
    backward(tsum(out))
    assert live.grad is not None and live.grad.shape == (3, 3)


def test_tensor_is_f32_throughout():
    t = Tensor(np.arange(4, dtype=np.float64))
    assert t.data.dtype == np.float32
    out = T.gelu(t)
    assert out.data.dtype == np.float32


# -- bitwise oracles: erf, GELU and layer_norm as first written ---------------


def assert_bitwise(got: np.ndarray, want: np.ndarray):
    """Equal bit patterns (so -0.0 != 0.0); any nan matches any nan."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    bad = np.flatnonzero(got.view(np.uint32)[~nan] != want.view(np.uint32)[~nan])
    assert bad.size == 0, f"{bad.size} differ, first at {want[~nan][bad[0]]!r}"


def erf_inputs() -> np.ndarray:
    """A dense grid over [-10, 10], every f32 in [0.5, 1), 10^6 random
    finite f32 bit patterns, and the edge values: signed zeros and
    infinities, nan, the smallest subnormal, +/-1 and their neighbours, both
    sides of 6 and of 8."""
    grid = np.linspace(-10.0, 10.0, 2**22 + 1).astype(np.float32)
    half = np.float32(0.5).view(np.uint32)
    binade = np.arange(half, half + 2**23, dtype=np.uint32).view(np.float32)
    bits = np.random.default_rng(5).integers(0, 2**32, size=1_100_000, dtype=np.uint64)
    rand = bits.astype(np.uint32).view(np.float32)
    rand = rand[np.isfinite(rand)][:10**6]
    assert rand.size == 10**6
    one = np.float32(1.0)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, np.nextafter(np.float32(0), one),
             one, np.nextafter(one, np.float32(0)), np.nextafter(one, np.float32(2)),
             *np.linspace(1.0, 6.0, 41)[1:], 6.0001, 7.99, 8.0, 8.01, 26.5, 27.0, 1e10,
             np.finfo(np.float32).max]
    edges = np.array(edges, dtype=np.float32)
    return np.concatenate([grid, binade, rand, edges, -edges])


def reference_gelu(x: np.ndarray) -> np.ndarray:
    """The exact GELU forward as first written, on scipy's erf."""
    return x * (0.5 * (1.0 + scipy_erf(x / T._SQRT_2))).astype(np.float32)


def test_erf_bitwise_equals_scipy():
    for part in np.array_split(erf_inputs(), 16):
        assert_bitwise(T._erf(part), scipy_erf(part))


def test_gelu_forward_bitwise_equals_scipy_formula():
    with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
        for part in np.array_split(erf_inputs(), 16):
            assert_bitwise(T.gelu(Tensor(part)).data, reference_gelu(part))


@pytest.mark.parametrize("shape", [(2, 89, 256), (1, 1, 256)])
def test_gelu_tensor_bitwise_equals_scipy_formula(shape):
    x = randf(*shape) * np.float32(2.0)
    g = randf(*shape)
    a = Tensor(x, requires_grad=True)
    out = T.gelu(a)
    assert_bitwise(out.data, reference_gelu(x))
    backward(tsum(mul(out, Tensor(g))))
    cdf = (0.5 * (1.0 + scipy_erf(x / T._SQRT_2))).astype(np.float32)
    pdf = T._INV_SQRT_2PI * np.exp(-0.5 * x * x)
    assert_bitwise(a.grad, (g * (cdf + x * pdf)).astype(np.float32))


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """layer_norm's forward and its x / gain / bias VJPs on ndarray.mean."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + np.float32(eps))).astype(np.float32)
    xhat = xc * inv
    gx = g * gain
    s1 = gx.mean(axis=-1, keepdims=True)
    s2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gain + bias,
            (inv * (gx - s1 - xhat * s2)).astype(np.float32),
            (g * xhat).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


@pytest.mark.parametrize("shape", [(2, 89, 64), (1, 1, 64)])
def test_layer_norm_bitwise_equals_mean_formula(shape):
    x, gain, bias, g = randf(*shape), randf(64), randf(64), randf(*shape)
    a, ga, b = (Tensor(v, requires_grad=True) for v in (x, gain, bias))
    out = T.layer_norm(a, ga, b)
    backward(tsum(mul(out, Tensor(g))))
    want = reference_layer_norm(x, gain, bias, g)
    for got, ref in zip((out.data, a.grad, ga.grad, b.grad), want):
        assert_bitwise(got, ref)
