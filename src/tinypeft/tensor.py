"""Dense f32 tensors with reverse-mode automatic differentiation.

Every kernel is a pure function over numpy arrays. When any input requires
gradient the kernel records a node with a closure computing the local
vector-Jacobian product; ``backward`` replays the graph in reverse
topological order. Compute is f32 throughout with fixed reduction order, so
identical inputs give bitwise identical outputs. The tape holds nothing
but these kernels, each with a hand-written VJP: ``embedding``, ``add`` (of
two tensors, for the residuals), ``narrow``, ``transpose``, ``layer_norm``,
``linear``, ``attention``, ``gelu`` and ``cross_entropy``. The generic ops
they replaced (``matmul``, ``mul``, ``reshape``, ``softmax``) live in
``tests/gradcheck.py``, as the graphs the kernels are checked against.
A ``Parameter`` is a named leaf; its ``requires_grad`` is the one record of
whether it trains, and ``freeze`` clears it.

``transpose`` returns a numpy view of its input; ``narrow`` and
``embedding`` copy. A view shares memory with its parent. That is safe
because a kernel writes in place only into arrays it allocated itself, and
only before it hands them out as node data, as an array its VJP saves or as
a gradient: elementwise passes run inside those buffers instead of
allocating a temporary each. Saved arrays, inputs and upstream gradients
are read-only, and the optimizer updates parameters only after backward.

Gradients follow one ownership rule. A VJP hands a parent, flagged
``owned``, only a C-contiguous buffer it allocated for that parent alone (a
product, a reduced sum, a scatter), and ``_accumulate`` adopts it as the
parent's first gradient; later gradients are added into it. Anything else
is copied first: a view (``transpose``'s, LoRA's swapped ``gBt``/``gAt``)
and the upstream gradient passed on unreduced (``add`` gives it to both
parents). So no gradient shares memory with another array, and ``+=`` on
one never writes through to a second.

``attention`` fuses the causal multi-head attention core into a single
node. It can score only the queries from a given row on (``from_row``),
with a VJP, so the forward computes just the rows the loss or the decoder
reads; under ``no_grad`` it can also extend a per-block key/value cache, so
decoding encodes only the new positions. ``linear`` fuses an affine layer
and its optional LoRA pair into one node, and ``cross_entropy`` scores
next-token targets on the (B, S, V) logits through a view, without copying
them. The exact ``gelu`` needs erf: ``_erf`` evaluates cephes' erf in f64
and rounds it to f32, as scipy's f32 loop does, so the module needs numpy
alone.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, StateError

_SQRT_2 = np.float32(np.sqrt(2.0))
# cephes ndtr.c coefficients: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8; U and Q are monic. Kept as
# 0-d f64 arrays: numpy would convert a Python float operand on every call.
_ERF_T, _ERF_U, _ERFC_P, _ERFC_Q = (tuple(np.array(c) for c in coef) for coef in (
    (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
     7.00332514112805075473E3, 5.55923013010394962768E4),
    (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
     2.26290000613890934246E4, 4.92673942608635921086E4),
    (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
    (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2),
))
_INV_SQRT_2PI = np.float32(1.0 / np.sqrt(2.0 * np.pi))
_MASK_VALUE = np.float32(-1e9)


class Tensor:
    """A node in the autodiff graph: f32 data, optional grad, parents."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def numel(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        return float(self.data)

    # -- graph plumbing ------------------------------------------------------

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        # adopts an ``owned`` first gradient and copies any other one; see
        # the ownership rule in the module docstring
        if self.grad is None:
            self.grad = g if owned else np.array(g, dtype=np.float32, order="C")
        else:
            self.grad += g


class Parameter(Tensor):
    """A named model weight; frozen parameters never get gradient buffers."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def freeze(self):
        self.requires_grad = False
        self.grad = None


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forwards only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _node(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return np.asarray(g, np.float32)  # a sum to shape () is a scalar


# -- kernels -----------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        # a reduced gradient is new; an unreduced one is g, seen by both parents
        for t in (a, b):
            if t.requires_grad:
                gt = _unbroadcast(g, t.shape)
                t._accumulate(gt, owned=gt is not g)

    return _node(data, (a, b), backward)


def transpose(a: Tensor, ax0: int = -2, ax1: int = -1) -> Tensor:
    data = a.data.swapaxes(ax0, ax1)

    def backward(g):
        a._accumulate(g.swapaxes(ax0, ax1))

    return _node(data, (a,), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow: [{start}, {start + length}) out of range for axis {axis} of {a.shape}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def backward(g):
        ga = np.zeros(a.shape, np.float32)
        ga[idx] = g
        a._accumulate(ga, owned=True)

    return _node(data.copy(), (a,), backward)


def _horner(x: np.ndarray, p: np.ndarray, coef) -> np.ndarray:
    """cephes' Horner steps in place: p = p * x + c for each c in coef."""
    for c in coef:
        p *= x
        p += c
    return p


def _erf(u: np.ndarray) -> np.ndarray:
    """erf of an f32 array, bitwise equal to scipy.special.erf.

    Like scipy's f32 loop, it runs cephes' double-precision erf with the
    same operation order and rounds the result to f32. |x| <= 1 takes the
    rational x T(x^2) / U(x^2); only the other elements take 1 - erfc(|x|)
    with erfc = exp(-x^2) P(x) / Q(x). |x| is clamped to 8: cephes switches
    to a second erfc rational there, but from 8 on erfc < 2^-54, so its
    1 - erfc is exactly 1, which is also what the first rational gives at 8.
    """
    x = u.astype(np.float64, order="C")  # so reshape(-1) below is a view
    z = x * x
    tail = None
    if not z.max(initial=0.0) <= 1.0:  # also taken for a nan
        tail = np.flatnonzero(z > 1.0)
        xt = x.reshape(-1)[tail]
        z.reshape(-1)[tail] = 0.0  # keeps the unused |x| <= 1 rational finite
    p = _horner(z, z * _ERF_T[0] + _ERF_T[1], _ERF_T[2:])
    p *= x
    # x is not read again: U(x^2) goes into its buffer
    p /= _horner(z, np.add(z, _ERF_U[0], out=x), _ERF_U[1:])
    if tail is not None:
        a = np.minimum(np.abs(xt), 8.0)
        erfc = np.exp(-a * a) * _horner(a, a * _ERFC_P[0] + _ERFC_P[1], _ERFC_P[2:])
        erfc /= _horner(a, a + _ERFC_Q[0], _ERFC_Q[1:])
        p.reshape(-1)[tail] = np.copysign(1.0 - erfc, xt)
    return p.astype(np.float32)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x), with Phi(x) = (1 + erf(x / sqrt(2))) / 2."""
    x = a.data
    cdf = _erf(x / _SQRT_2)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def backward(g):
        # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer
        t = np.multiply(x, -0.5)
        t *= x
        np.exp(t, out=t)
        t *= _INV_SQRT_2PI
        t *= x
        t += cdf
        t *= g
        a._accumulate(t, owned=True)

    return _node(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ShapeError(f"layer_norm: eps must be > 0, got {eps}")
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} vs feature dim {d}"
        )
    # ndarray.mean without its Python-level wrapper: mean divides the f32 sum
    # by an integer count in f64 and rounds to f32, which gives the bits of
    # one f32 divide (53 >= 2 * 24 + 2 bits, so double rounding is exact)
    n = np.float32(d)
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / n
    xhat = a.data - mu
    data = xhat * xhat
    var = np.add.reduce(data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def backward(g):
        t = None
        if gain.requires_grad:
            t = g * xhat
            gain._accumulate(t.reshape(-1, d).sum(axis=0), owned=True)
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0), owned=True)
        if a.requires_grad:
            # inv * (gx - s1 - xhat * s2), with t holding gx * xhat, then xhat * s2
            gx = g * gain.data
            s1 = np.add.reduce(gx, axis=-1, keepdims=True) / n
            t = np.multiply(gx, xhat, out=t)
            s2 = np.add.reduce(t, axis=-1, keepdims=True) / n
            np.multiply(xhat, s2, out=t)
            gx -= s1
            gx -= t
            gx *= inv
            a._accumulate(gx, owned=True)

    return _node(data, (a, gain, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: table (V, d) indexed by integer ids (...,) -> (..., d)."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        bad = int(np.argmax((ids < 0) | (ids >= table.shape[0])))
        raise ShapeError(f"embedding: id out of range at flat position {bad}")
    data = table.data[ids]

    def backward(g):
        gt = np.zeros(table.shape, np.float32)
        np.add.at(gt, ids.ravel(), g.reshape(-1, table.shape[1]))
        table._accumulate(gt, owned=True)

    return _node(data.copy(), (table,), backward)


@functools.lru_cache(maxsize=None)
def _causal_bias(s: int) -> np.ndarray:
    """Read-only (s, s) f32 score bias, the one causal mask: 0 on and below
    the diagonal, -1e9 above it, where probs and so the VJP's ds are 0. Adding
    it leaves a kept score as it is (-0.0 turns +0.0, which the exp erases)
    and takes a masked one to -1e9 within rounding, which exps to exactly 0
    after the max-shift while the scores are far below 1e9 in magnitude.
    Each length gets the top-left block of the bias of the next power of
    two, so the lengths share a few buffers, not an f32 square each."""
    n = 1 << (s - 1).bit_length()
    if n != s:
        return _causal_bias(n)[:s, :s]
    bias = np.where(np.tri(s, dtype=bool), np.float32(0.0), _MASK_VALUE)
    bias.flags.writeable = False
    return bias


def attention(qkv: Tensor, n_heads: int, cache: list | None = None,
              from_row: int = 0) -> Tensor:
    """Causal multi-head self-attention core: (B, S, 3d) -> (B, S - from_row, d).

    ``qkv`` is the fused query/key/value projection, each part split into
    ``n_heads`` heads of d / n_heads features. One node with a hand-written
    VJP: scores are scaled by 1/sqrt(head dim), positions above the diagonal
    are masked before the softmax and pass no gradient. The operands of each
    product are laid out so that the result is bitwise equal to the same
    math built from the single ops (numpy's matmul can round differently on
    a transposed operand); a single scored row makes the score product a
    matrix-vector one, which rounds differently from that graph.

    ``from_row`` scores only the queries from_row..S-1; the keys and values
    of all S positions are still computed, and each scored query attends to
    every key up to its own position. In the VJP the queries above from_row
    get a zero gradient, and every key and value gets its gradient from all
    the scored queries.

    ``cache`` is one block's key/value cache for decoding: a list that is
    empty at first and then holds ``[k, v]`` of every earlier position. This
    call's keys and values are appended after the cached ones, its queries
    attend to all of them, and the longer ``[k, v]`` is stored back. A cached
    call has no VJP, so it raises while the tape records.
    """
    if qkv.data.ndim != 3 or n_heads < 1 or qkv.shape[-1] % (3 * n_heads):
        raise ShapeError(f"attention: cannot split {qkv.shape} into q/k/v of {n_heads} heads")
    B, S, d3 = qkv.shape
    if not 0 <= from_row < S:
        raise ShapeError(f"attention: from_row {from_row} out of range for {S} positions")
    hd = d3 // (3 * n_heads)
    q, k, v = np.ascontiguousarray(
        qkv.data.reshape(B, S, 3, n_heads, hd).transpose(2, 0, 3, 1, 4))  # (B, H, S, hd)
    bias = _causal_bias(S)
    if cache is not None and _grad_enabled:
        raise StateError("attention: a key/value cache needs no_grad(), it has no backward")
    if cache is not None:
        if cache:
            k = np.concatenate((cache[0], k), axis=2)
            v = np.concatenate((cache[1], v), axis=2)
            bias = _causal_bias(k.shape[2])[-S:]
        cache[:] = [k, v]
    n = S - from_row  # scored rows
    if from_row:
        q, bias = np.ascontiguousarray(q[:, :, from_row:]), bias[from_row:]
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    scale = np.float32(1.0 / np.sqrt(hd))
    # scale, mask, max-shift, exp and normalise inside the score buffer
    probs = q @ kt
    probs *= scale
    probs += bias
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    data = (probs @ v).transpose(0, 2, 1, 3).reshape(B, n, d3 // 3)

    def backward(g):
        g_ctx = np.ascontiguousarray(g.reshape(B, n, n_heads, hd).transpose(0, 2, 1, 3))
        dv = probs.swapaxes(-1, -2) @ g_ctx
        # ds = probs * (dp - rowsum(dp * probs)) * scale. probs is exactly +0
        # above the diagonal, so ds is +-0 there: terms that leave every
        # nonzero sum in the dq and dk products as it is, so no mask pass
        ds = g_ctx @ v.swapaxes(-1, -2)
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= scale
        dk = (q.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)
        gqkv = np.empty((B, S, 3, n_heads, hd), np.float32)
        gqkv[:, :from_row, 0] = 0.0
        gqkv[:, from_row:, 0] = (ds @ k).transpose(0, 2, 1, 3)
        gqkv[:, :, 1] = dk.transpose(0, 2, 1, 3)
        gqkv[:, :, 2] = dv.transpose(0, 2, 1, 3)
        qkv._accumulate(gqkv.reshape(B, S, d3), owned=True)

    return _node(data, (qkv,), backward)


def dropout_mask(shape, p: float, rng) -> np.ndarray | None:
    """Inverted-dropout mask, 0 or 1/(1-p) per element; None (identity) when p == 0."""
    if p == 0.0:
        return None
    if rng is None:
        raise ConfigError(f"dropout {p} needs an rng")
    return rng.keep_mask(shape, p) * (np.float32(1.0) / np.float32(1.0 - p))


def linear(x: Tensor, W: Tensor, b: Tensor | None = None, lora: tuple | None = None) -> Tensor:
    """Affine map with an optional LoRA pair: (..., d_in) -> (..., d_out).

    y = x @ W (+ b) (+ s * ((x * mask) @ A^T) @ B^T), where ``lora`` is
    ``(A, B, s, mask)``: A is (r, d_in), B is (d_out, r), s the scaling and
    mask a ``dropout_mask`` of x or None. One node with a hand-written VJP; it
    runs the numpy calls of the matmul / add / mul / transpose graph in the
    same order, so forward and gradients are bitwise equal to that graph. A
    frozen weight gets no gradient.
    """
    if x.shape[-1] != W.shape[0]:
        raise ShapeError(f"linear: input {x.shape} vs weight {W.shape}")
    data = x.data @ W.data
    parents = [x, W]
    if b is not None:
        data += b.data
        parents.append(b)
    if lora is not None:
        A, B, s, mask = lora
        xd = x.data if mask is None else x.data * mask
        At, Bt = A.data.swapaxes(0, 1), B.data.swapaxes(0, 1)
        h = xd @ At
        delta = h @ Bt
        if s != 1:  # x * 1 is x: the default alpha = r skips the pass
            delta *= s
        data += delta
        parents += [A, B]

    def backward(g):
        # the products and the reduced sums are new; gBt and gAt are handed
        # over as swapped views, and an unreduced bias gradient is g itself
        if b is not None and b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            b._accumulate(gb, owned=gb is not g)
        if W.requires_grad:
            W._accumulate(_unbroadcast(x.data.swapaxes(-1, -2) @ g, W.shape), owned=True)
        gx = g @ W.data.swapaxes(-1, -2) if x.requires_grad else None
        if lora is not None:
            gd = g * s if s != 1 else g
            if B.requires_grad:
                gBt = _unbroadcast(h.swapaxes(-1, -2) @ gd, Bt.shape)
                B._accumulate(gBt.swapaxes(0, 1))
            gh = gd @ Bt.swapaxes(-1, -2)
            if A.requires_grad:
                gAt = _unbroadcast(xd.swapaxes(-1, -2) @ gh, At.shape)
                A._accumulate(gAt.swapaxes(0, 1))
            if gx is not None:
                gxd = gh @ At.swapaxes(-1, -2)
                if mask is not None:
                    gxd *= mask
                gx += gxd
        if gx is not None:
            x._accumulate(gx, owned=True)

    return _node(data, parents, backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -1) -> Tensor:
    """Mean negative log-likelihood over positions whose target != ignore_index.

    logits: (..., S, V); targets: integer (..., n) with n <= S, where target t
    scores logits[..., t, :]. Next-token loss passes (B, S, V) logits with the
    shifted (B, S-1) targets: the first S-1 positions are read as a view, and
    the last position gets a zero gradient.
    """
    targets = np.asarray(targets)
    if (logits.data.ndim < 2 or targets.shape[:-1] != logits.shape[:-2]
            or targets.ndim < 1 or targets.shape[-1] > logits.shape[-2]):
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs targets {targets.shape}"
        )
    n = targets.shape[-1]
    keep = targets != ignore_index
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ShapeError("cross_entropy: every position is masked")
    x = logits.data[..., :n, :]
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True)).astype(np.float32)
    safe_t = np.where(keep, targets, 0)[..., None]
    picked = np.take_along_axis(z, safe_t, axis=-1) - lse  # log p of each target
    data = np.float32(-(picked.reshape(-1) * keep.reshape(-1)).sum() / n_keep)
    if not np.isfinite(data):
        raise NumericError("cross_entropy: non-finite loss")

    def backward(g):
        # softmax(z) = exp(z - lse), written straight into the gradient buffer
        gl = np.empty(logits.shape, np.float32)
        gl[..., n:, :] = 0.0
        gp = gl[..., :n, :]
        np.subtract(z, lse, out=gp)
        np.exp(gp, out=gp)
        np.put_along_axis(gp, safe_t, np.take_along_axis(gp, safe_t, axis=-1) - 1.0, axis=-1)
        gp *= keep[..., None] / np.float32(n_keep)
        gp *= np.float32(g)
        logits._accumulate(gl, owned=True)

    return _node(data, (logits,), backward)


# -- backward pass -----------------------------------------------------------


def backward(loss: Tensor, scale: float = 1.0):
    """Populate .grad on every trainable tensor reachable from a scalar loss.

    The loss's own gradient is seeded with ``scale`` rather than 1, so the
    gradients are those of scale * loss (the trainer's accumulation weight).
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss._accumulate(np.full_like(loss.data, scale), owned=True)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
