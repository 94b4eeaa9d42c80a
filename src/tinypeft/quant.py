"""4-bit blockwise weight quantization with an optional second quantization
pass over the per-block scales.

The codebooks sit in one table built at import, ``CODEBOOKS``: codebook id
-> 16 ascending f32 levels, read-only and shared by every quantized tensor.
The nf4 codebook is built from evenly spaced standard-normal quantiles:
8 strictly negative points from probabilities [delta, 0.5) and 8 points
from [0.5, 1-delta] (zero plus 7 positive), normalized so the endpoints
are exactly +/-1 and level 8 is exactly 0. delta trims the tails so the
inverse CDF stays finite; it equals half a quantile bin on each side
((1/32 + 1/30)/2). The quantiles come from the standard library's
``statistics.NormalDist().inv_cdf`` in f64; normalized and rounded to f32,
the 16 levels are bitwise equal to ones built on scipy's ``ndtri``. The
uniform4 codebook is 16 evenly spaced levels in [-1, 1] for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DataError, NumericError

_TAIL_DELTA = 0.5 * (1.0 / 32.0 + 1.0 / 30.0)


def build_nf4_codebook() -> np.ndarray:
    """16 normal-quantile levels in [-1, 1] with an exact zero at index 8."""
    p_neg = np.linspace(_TAIL_DELTA, 0.5, 9)[:-1]
    p_pos = np.linspace(0.5, 1.0 - _TAIL_DELTA, 8)
    inv_cdf = NormalDist().inv_cdf
    raw = np.array([inv_cdf(p) for p in np.concatenate([p_neg, p_pos]).tolist()])
    vals = (raw / np.abs(raw).max()).astype(np.float32)
    # inv_cdf(0.5) is 0 and the tails are symmetric; pin against f64 rounding
    vals[8] = 0.0
    vals[0], vals[15] = -1.0, 1.0
    return vals


CODEBOOKS = {"nf4": build_nf4_codebook(),
             "uniform4": np.linspace(-1.0, 1.0, 16, dtype=np.float32)}
for _levels in CODEBOOKS.values():
    _levels.flags.writeable = False


@dataclass
class QuantConfig:
    block_size: int = 64
    codebook: str = "nf4"  # a key of CODEBOOKS
    double_quant: bool = True
    dq_group: int = 256

    def __post_init__(self):
        if self.block_size < 2:
            raise ConfigError(f"block_size must be >= 2, got {self.block_size}")
        if self.dq_group < 2:
            raise ConfigError(f"dq_group must be >= 2, got {self.dq_group}")
        if self.codebook not in CODEBOOKS:
            raise ConfigError(f"unknown codebook {self.codebook!r}")


@dataclass
class QuantizedTensor:
    original_shape: tuple[int, ...]
    packed: np.ndarray  # uint8, two nibbles per byte, low nibble first
    block_size: int
    codebook_id: str
    # plain path
    scales: np.ndarray | None = None  # f32, one absmax per block
    # double-quant path
    scale_codes: np.ndarray | None = None  # uint8 per block
    group_scales: np.ndarray | None = None  # f32 per dq group
    group_offsets: np.ndarray | None = None  # f32 per dq group
    dq_group: int = 0

    @property
    def numel(self) -> int:
        return int(np.prod(self.original_shape))

    @property
    def n_blocks(self) -> int:
        return -(-self.numel // self.block_size)

    @property
    def double_quant(self) -> bool:
        return self.scale_codes is not None

    def block_scales(self) -> np.ndarray:
        """Per-block f32 scales, reconstructed from 8-bit codes if needed."""
        if not self.double_quant:
            return self.scales
        groups = np.repeat(np.arange(len(self.group_scales)), self.dq_group)[: self.n_blocks]
        return (
            self.scale_codes.astype(np.float32) * self.group_scales[groups]
            + self.group_offsets[groups]
        ).astype(np.float32)


def quantize_blockwise(w: np.ndarray, config: QuantConfig) -> QuantizedTensor:
    """Map each value to its nearest codebook level after per-block absmax
    scaling. Ties go to the lower index; an all-zero block gets scale 1.0."""
    w = np.asarray(w, dtype=np.float32)
    if not np.all(np.isfinite(w)):
        bad = int(np.argmax(~np.isfinite(w.ravel())))
        raise NumericError(f"non-finite weight at flat index {bad}")
    book = CODEBOOKS[config.codebook]
    flat = w.ravel()
    numel = flat.size
    bs = config.block_size
    n_blocks = -(-numel // bs)
    padded = np.zeros(n_blocks * bs, dtype=np.float32)
    padded[:numel] = flat
    blocks = padded.reshape(n_blocks, bs)
    scales = np.abs(blocks).max(axis=1)
    scales[scales == 0.0] = 1.0
    blocks /= scales[:, None]  # padded now holds the scaled values
    # the levels around each value: any other level is a level gap farther
    # away, far beyond f32 rounding, so the nearer of the two is the nearest,
    # and a tie keeps the lower, as an argmin over all levels does
    hi = np.minimum(np.searchsorted(book, padded), len(book) - 1).astype(np.uint8)
    lo = np.maximum(hi, 1) - 1
    idx = np.where(np.abs(padded - book[lo]) <= np.abs(padded - book[hi]), lo, hi)[:numel]
    if numel % 2:
        idx = np.append(idx, np.uint8(0))
    packed = (idx[0::2] | (idx[1::2] << 4)).astype(np.uint8)

    q = QuantizedTensor(
        original_shape=tuple(w.shape),
        packed=packed,
        block_size=bs,
        codebook_id=config.codebook,
    )
    if config.double_quant:
        codes, gscales, goffsets = _quantize_scales(scales.astype(np.float32), config.dq_group)
        q.scale_codes, q.group_scales, q.group_offsets = codes, gscales, goffsets
        q.dq_group = config.dq_group
    else:
        q.scales = scales.astype(np.float32)
    return q


def _quantize_scales(scales: np.ndarray, group: int):
    """8-bit affine quantization of the scale vector, per dq group."""
    n = len(scales)
    n_groups = -(-n // group)
    codes = np.empty(n, dtype=np.uint8)
    gscales = np.empty(n_groups, dtype=np.float32)
    goffsets = np.empty(n_groups, dtype=np.float32)
    for g in range(n_groups):
        chunk = scales[g * group : (g + 1) * group]
        lo, hi = float(chunk.min()), float(chunk.max())
        step = (hi - lo) / 255.0
        if step == 0.0:
            step = 1.0
        c = np.clip(np.rint((chunk - lo) / step), 0, 255).astype(np.uint8)
        codes[g * group : g * group + len(chunk)] = c
        gscales[g] = np.float32(step)
        goffsets[g] = np.float32(lo)
    return codes, gscales, goffsets


def dequantize_blockwise(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct f32 weights: codebook[nibble] * block scale."""
    numel = q.numel
    expect_packed = -(-numel // 2)
    if len(q.packed) != expect_packed:
        raise DataError(f"packed length {len(q.packed)} != expected {expect_packed}")
    n_scales = q.n_blocks
    scales = q.block_scales()
    if len(scales) != n_scales:
        raise DataError(f"scale count {len(scales)} != expected {n_scales}")
    idx = np.empty(expect_packed * 2, dtype=np.uint8)
    idx[0::2] = q.packed & 0x0F
    idx[1::2] = q.packed >> 4
    # pad the last block to full width so every block scales in one multiply
    levels = np.zeros(n_scales * q.block_size, dtype=np.float32)
    levels[:numel] = CODEBOOKS[q.codebook_id][idx[:numel]]
    out = levels.reshape(n_scales, q.block_size) * scales[:, None]
    return out.reshape(-1)[:numel].astype(np.float32, copy=False).reshape(q.original_shape)

