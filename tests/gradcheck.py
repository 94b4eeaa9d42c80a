"""Central finite-difference oracles for the autodiff kernels.

The forward pass runs in f32, so per-coordinate relative error on tiny
gradient entries is dominated by rounding noise. Errors are therefore
measured against the infinity norm of the analytic gradient of the same
tensor, which is the quantity the optimizer actually consumes.

``tsum`` and ``tmean`` reduce a tensor to a scalar loss with a gradient. The
library never reduces that way (its one loss is ``cross_entropy``), so they
live here, next to the tests that need a scalar to call ``backward`` on.
``matmul``, ``mul``, ``reshape`` and ``softmax`` are the single ops the
linear, attention, loss and tied-head oracles are built from; the library's
fused kernels replaced them.
"""

import numpy as np

from tinypeft import tensor as T
from tinypeft.tensor import Tensor, backward


def tsum(a: Tensor) -> Tensor:
    data = np.float32(a.data.sum())

    def backward_fn(g):
        a._accumulate(np.full_like(a.data, np.float32(g)))

    return T._node(data, (a,), backward_fn)


def tmean(a: Tensor) -> Tensor:
    n = np.float32(a.data.size)
    data = np.float32(a.data.sum() / n)

    def backward_fn(g):
        a._accumulate(np.full_like(a.data, np.float32(g) / n))

    return T._node(data, (a,), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(T._unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(T._unbroadcast(g * a.data, b.shape))

    return T._node(data, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2D or batched matrix product with numpy broadcasting semantics."""
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(T._unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(T._unbroadcast(gb, b.shape))

    return T._node(data, (a, b), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    """A view of ``a`` in a new shape (numpy copies only when it must)."""
    old = a.shape
    data = a.data.reshape(shape)

    def backward_fn(g):
        a._accumulate(g.reshape(old))

    return T._node(data, (a,), backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Row-wise softmax, numerically stable."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    data = (e / e.sum(axis=axis, keepdims=True)).astype(np.float32)

    def backward_fn(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a._accumulate((data * (g - dot)).astype(np.float32))

    return T._node(data, (a,), backward_fn)


def numeric_grad(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central differences of a scalar-valued f at x, one coordinate at a time."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        dn = f()
        flat[i] = orig
        gf[i] = (up - dn) / (2.0 * h)
    return g


def check_op(op, inputs: list[np.ndarray], h: float = 1e-3, tol: float = 1e-3):
    """Assert autodiff gradients of op(*inputs).sum-with-weights match FD.

    A fixed random projection breaks symmetry so cancelling gradients can
    not mask a wrong kernel.
    """
    # analytic pass
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*tensors)
    w = Tensor(_proj(np.random.default_rng(0), out.shape))
    loss = tsum(mul(out, w))
    backward(loss)

    for k, a in enumerate(inputs):
        def f(k=k):
            ts = [Tensor(b) for b in inputs]
            o = op(*ts)
            ww = _proj(np.random.default_rng(0), o.shape)
            return float((o.data.astype(np.float64) * ww).sum())

        num = numeric_grad(f, a, h=h)
        got = tensors[k].grad.astype(np.float64)
        scale = max(np.abs(got).max(), np.abs(num).max(), 1e-6)
        err = np.abs(got - num).max() / scale
        assert err < tol, f"input {k}: max relative error {err:.2e} >= {tol}"


def _proj(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float32)


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max abs difference normalized by the larger gradient infinity norm."""
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
    return float(np.abs(analytic.astype(np.float64) - numeric).max() / scale)
