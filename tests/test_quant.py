"""NF4 codebook against an independent bisection quantile oracle and, bitwise,
the build on scipy's ndtri; blockwise round-trip bounds, packing layout, and
double quantization."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from tinypeft.errors import ConfigError, DataError, NumericError
from tinypeft.model import CausalLMConfig, init_model
from tinypeft.peft import quantize_base
from tinypeft.quant import (
    _TAIL_DELTA,
    CODEBOOKS,
    QuantConfig,
    build_nf4_codebook,
    dequantize_blockwise,
    quantize_blockwise,
)
from tinypeft.rng import RngState
from tinypeft.tensor import Tensor

from conftest import payload_bits_per_weight


def half_gap(q) -> float:
    """Half the widest gap between adjacent levels: the rounding bound."""
    return float(np.diff(CODEBOOKS[q.codebook_id]).max()) / 2.0


def normal_quantile_oracle(p: float) -> float:
    """Invert Phi via bisection on math.erf, independent of scipy."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_codebook_matches_bisection_oracle():
    probs = np.concatenate([
        np.linspace(_TAIL_DELTA, 0.5, 9)[:-1],
        np.linspace(0.5, 1.0 - _TAIL_DELTA, 8),
    ])
    raw = np.array([normal_quantile_oracle(p) for p in probs])
    want = raw / np.abs(raw).max()
    got = build_nf4_codebook()
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_codebook_bitwise_equals_ndtri_build():
    raw = ndtri(np.concatenate([
        np.linspace(_TAIL_DELTA, 0.5, 9)[:-1],
        np.linspace(0.5, 1.0 - _TAIL_DELTA, 8),
    ]))
    want = (raw / np.abs(raw).max()).astype(np.float32)
    want[8], want[0], want[15] = 0.0, -1.0, 1.0
    got = build_nf4_codebook()
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_codebook_endpoints_and_zero_exact():
    vals = build_nf4_codebook()
    assert vals[0] == -1.0 and vals[15] == 1.0 and vals[8] == 0.0
    assert np.all(np.diff(vals) > 0)  # strictly ascending
    assert len(vals) == 16
    assert (vals < 0).sum() == 8 and (vals > 0).sum() == 7


def test_codebook_denser_near_zero():
    vals = build_nf4_codebook()
    gaps = np.diff(vals)
    # normal quantiles cluster around 0, so the central gaps are smallest
    assert gaps[7] < gaps[0] and gaps[8] < gaps[-1]


def test_uniform_codebook():
    vals = CODEBOOKS["uniform4"]
    np.testing.assert_allclose(np.diff(vals), 2.0 / 15.0, rtol=1e-6)


def test_quant_config_rejects_an_unknown_codebook():
    with pytest.raises(ConfigError, match="int4"):
        QuantConfig(codebook="int4")


def test_codebook_table_is_read_only_and_holds_the_nf4_build():
    assert sorted(CODEBOOKS) == ["nf4", "uniform4"]
    assert np.array_equal(CODEBOOKS["nf4"].view(np.uint32),
                          build_nf4_codebook().view(np.uint32))
    for levels in CODEBOOKS.values():
        assert levels.dtype == np.float32 and levels.shape == (16,)
        assert not levels.flags.writeable
        with pytest.raises(ValueError):
            levels[0] = 0.0


# -- quantize / dequantize ----------------------------------------------------


def test_roundtrip_error_bound_large_sample():
    rng = np.random.default_rng(0)
    w = rng.normal(0.0, 0.02, size=100_000).astype(np.float32)
    cfg = QuantConfig(block_size=64, double_quant=False)
    q = quantize_blockwise(w, cfg)
    back = dequantize_blockwise(q)
    scales = np.repeat(q.block_scales(), 64)[: w.size]
    assert np.all(np.abs(back - w) <= scales * half_gap(q) + 1e-7)


def test_quantize_dequantize_quantize_is_stable():
    # the absmax element hits +/-1 exactly, so a second pass reproduces the
    # packed bytes and scales bitwise
    rng = np.random.default_rng(1)
    w = rng.normal(0.0, 0.02, size=(30, 17)).astype(np.float32)
    cfg = QuantConfig(block_size=32, double_quant=False)
    q1 = quantize_blockwise(w, cfg)
    q2 = quantize_blockwise(dequantize_blockwise(q1), cfg)
    np.testing.assert_array_equal(q1.packed, q2.packed)
    np.testing.assert_array_equal(q1.scales, q2.scales)


def test_packing_low_nibble_first():
    # values exactly at codebook levels 0 and 15 -> indices 0 and 15
    w = np.array([-1.0, 1.0], dtype=np.float32)
    q = quantize_blockwise(w, QuantConfig(block_size=2, double_quant=False))
    assert q.packed.tolist() == [0 | (15 << 4)]


def test_ragged_tail_block():
    w = np.random.default_rng(2).normal(0, 1, size=(3, 65)).astype(np.float32)
    cfg = QuantConfig(block_size=64, double_quant=False)
    q = quantize_blockwise(w, cfg)
    assert q.n_blocks == 4  # 195 elements, tail block of 3
    back = dequantize_blockwise(q)
    assert back.shape == (3, 65)
    scales = np.repeat(q.scales, 64)[: w.size].reshape(w.shape)
    assert np.all(np.abs(back - w) <= scales * half_gap(q) + 1e-6)


def reference_dequantize(q) -> np.ndarray:
    """The original dequantizer: one Python-level multiply per block."""
    numel = q.numel
    idx = np.empty(len(q.packed) * 2, dtype=np.uint8)
    idx[0::2] = q.packed & 0x0F
    idx[1::2] = q.packed >> 4
    levels = CODEBOOKS[q.codebook_id][idx[:numel]]
    scales = q.block_scales()
    out = np.empty(numel, dtype=np.float32)
    bs = q.block_size
    for b in range(q.n_blocks):
        lo = b * bs
        hi = min(lo + bs, numel)
        out[lo:hi] = levels[lo:hi] * scales[b]
    return out.reshape(q.original_shape)


@pytest.mark.parametrize("shape, block_size, double_quant, codebook", [
    ((512, 512), 64, True, "nf4"),
    ((3, 65), 64, False, "nf4"),      # ragged tail block of 3
    ((7, 9), 16, True, "uniform4"),   # odd numel, ragged tail
    ((9,), 3, False, "nf4"),          # odd block size, numel a multiple of it
    ((5,), 8, True, "nf4"),           # a single partial block
    ((1000,), 2, True, "nf4"),        # more scales than one dq group
])
def test_dequantize_bitwise_equals_blockwise_loop(shape, block_size, double_quant, codebook):
    w = np.random.default_rng(7).normal(0.0, 0.05, size=shape).astype(np.float32)
    q = quantize_blockwise(w, QuantConfig(block_size=block_size, codebook=codebook,
                                          double_quant=double_quant, dq_group=4))
    got, want = dequantize_blockwise(q), reference_dequantize(q)
    assert got.dtype == np.float32 and got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()


def argmin_codes(w: np.ndarray, config: QuantConfig) -> np.ndarray:
    """The original code search: every value's distance to all 16 levels, and
    argmin's first index on a tie. Returns the unpacked codes."""
    bs = config.block_size
    padded = np.zeros(-(-w.size // bs) * bs, np.float32)
    padded[:w.size] = w.ravel()
    blocks = padded.reshape(-1, bs)
    scales = np.abs(blocks).max(axis=1)
    scales[scales == 0.0] = 1.0
    normalized = blocks / scales[:, None]
    book = CODEBOOKS[config.codebook]
    return np.abs(normalized[:, :, None] - book).argmin(axis=2).ravel()[:w.size]


def edge_weights(codebook: str) -> np.ndarray:
    """Every level, the f32 midpoint of each adjacent pair and one ulp either
    side of it, in blocks of 61 whose absmax is 1 (so scaling is exact), then
    an all-zero block, the same values scaled by 0.375, and an odd tail."""
    book = CODEBOOKS[codebook]
    mids = ((book[:-1].astype(np.float64) + book[1:]) / 2).astype(np.float32)
    core = np.concatenate([book, mids, np.nextafter(mids, np.float32(-2)),
                           np.nextafter(mids, np.float32(2))])
    return np.concatenate([core, np.zeros_like(core), core * np.float32(0.375), core[:6]])


def unpack(q) -> np.ndarray:
    return np.stack([q.packed & 0x0F, q.packed >> 4], axis=1).ravel()[:q.numel]


PINNED_CODES = {
    ("nf4", False): "4905431328057b507fa11f0291a3666876537104b322a3ec9c281f62eb03e1f5",
    ("nf4", True): "2fcab3f3da472f507275f62651e10c5ecf26e809b7d12c50a29a509f1616b248",
    ("uniform4", False): "e0e381bb8d1235d2050425ff0aff6eeeb30f068c8b955593a424de811af70882",
    ("uniform4", True): "f86f821a0fde612dc8f230c7e1b0cebf1880eeab70fb0f5114698d85ba005e9e",
}


@pytest.mark.parametrize("codebook, double_quant", sorted(PINNED_CODES))
def test_codes_at_levels_midpoints_and_ulps_are_pinned(codebook, double_quant):
    w = edge_weights(codebook)
    assert w.size == 189
    cfg = QuantConfig(block_size=61, codebook=codebook, double_quant=double_quant, dq_group=2)
    q = quantize_blockwise(w, cfg)
    h = hashlib.sha256(q.packed.tobytes())
    for a in (q.scales, q.scale_codes, q.group_scales, q.group_offsets):
        if a is not None:
            h.update(a.tobytes())
    assert h.hexdigest() == PINNED_CODES[codebook, double_quant]
    np.testing.assert_array_equal(unpack(q), argmin_codes(w, cfg))
    # the midpoints include exact ties, which go to the lower level
    book = CODEBOOKS[codebook]
    mids = w[16:31]
    tie = np.abs(mids - book[:-1]) == np.abs(mids - book[1:])
    assert tie.any()
    np.testing.assert_array_equal(unpack(q)[16:31][tie], np.arange(15)[tie])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.integers(2, 70), st.sampled_from(sorted(CODEBOOKS)),
       st.integers(0, 2**32 - 1))
def test_codes_equal_an_argmin_over_all_levels(n, block_size, codebook, seed):
    rng = np.random.default_rng(seed)
    w = (rng.normal(0, 1, size=n) * rng.choice([1e-30, 0.02, 1e30])).astype(np.float32)
    cfg = QuantConfig(block_size=block_size, codebook=codebook, double_quant=False)
    np.testing.assert_array_equal(unpack(quantize_blockwise(w, cfg)), argmin_codes(w, cfg))


def test_quantize_allocates_no_per_level_temporaries():
    # a (blocks, block_size, 16) distance cube took ~136 bytes per weight
    w = np.random.default_rng(9).normal(0, 0.02, size=(512, 512)).astype(np.float32)
    tracemalloc.start()
    try:
        quantize_blockwise(w, QuantConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * w.size


def test_all_zero_block_gets_unit_scale():
    q = quantize_blockwise(np.zeros(8, np.float32),
                           QuantConfig(block_size=4, double_quant=False))
    np.testing.assert_array_equal(q.scales, [1.0, 1.0])
    np.testing.assert_array_equal(dequantize_blockwise(q), np.zeros(8))


def test_nonfinite_rejected_with_index():
    w = np.zeros(10, np.float32)
    w[7] = np.inf
    with pytest.raises(NumericError, match="7"):
        quantize_blockwise(w, QuantConfig())


def test_corrupted_packed_length_detected():
    q = quantize_blockwise(np.ones(16, np.float32),
                           QuantConfig(block_size=8, double_quant=False))
    q.packed = q.packed[:-1]
    with pytest.raises(DataError, match="packed"):
        dequantize_blockwise(q)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_roundtrip_bound_property(n, seed):
    rng = np.random.default_rng(seed)
    w = (rng.normal(0, 1, size=n) * rng.choice([0.001, 1.0, 50.0])).astype(np.float32)
    cfg = QuantConfig(block_size=16, double_quant=False)
    q = quantize_blockwise(w, cfg)
    back = dequantize_blockwise(q)
    scales = np.repeat(q.scales, 16)[:n]
    bound = scales * half_gap(q) * (1 + 1e-5) + 1e-7
    assert np.all(np.abs(back - w) <= bound)


# -- double quantization ------------------------------------------------------


def test_double_quant_scale_reconstruction_close():
    rng = np.random.default_rng(3)
    w = rng.normal(0, 0.02, size=64 * 600).astype(np.float32)
    plain = quantize_blockwise(w, QuantConfig(double_quant=False))
    dq = quantize_blockwise(w, QuantConfig(double_quant=True, dq_group=256))
    np.testing.assert_array_equal(plain.packed, dq.packed)
    # 8-bit affine codes recover scales to ~1/255 of the group range
    err = np.abs(dq.block_scales() - plain.scales)
    span = plain.scales.max() - plain.scales.min()
    assert err.max() <= span / 255.0 * 0.51 + 1e-7


def test_double_quant_roundtrip_still_tight():
    rng = np.random.default_rng(4)
    w = rng.normal(0, 0.02, size=64 * 300).astype(np.float32)
    q = quantize_blockwise(w, QuantConfig())
    back = dequantize_blockwise(q)
    assert np.abs(back - w).max() < 0.02  # loose sanity, dominated by 4-bit error


def test_footprint_formulas():
    w = np.zeros(64 * 512, np.float32)
    plain = quantize_blockwise(w, QuantConfig(block_size=64, double_quant=False))
    assert payload_bits_per_weight(plain) == 4.0 + 32.0 / 64.0  # 4.5
    dq = quantize_blockwise(w, QuantConfig(block_size=64, dq_group=256))
    assert payload_bits_per_weight(dq) == 4.0 + 8.0 / 64.0 + 64.0 / 16384.0


def test_nf4_beats_uniform_on_gaussian_weights():
    rng = np.random.default_rng(5)
    w = rng.normal(0.0, 0.02, size=100_000).astype(np.float32)
    errs = {}
    for book in ("nf4", "uniform4"):
        q = quantize_blockwise(w, QuantConfig(block_size=64, codebook=book,
                                              double_quant=False))
        errs[book] = float(np.mean((dequantize_blockwise(q) - w) ** 2))
    assert errs["nf4"] < errs["uniform4"]


def test_quantized_forward_bitwise_equals_two_step():
    """A quantized base's linear is ``tensor.linear`` on the dequantized
    weight: x @ dequantize(q) + b, bitwise."""
    model = init_model(CausalLMConfig(vocab_size=32, d_model=16, n_heads=2, n_layers=1,
                                      seq_len=8), RngState(6))
    quantize_base(model, QuantConfig(block_size=16))
    rng = np.random.default_rng(6)
    for lin in model.linears():
        lin.bias.data = rng.normal(0, 1, lin.d_out).astype(np.float32)
        x = rng.normal(0, 1, size=(2, 3, lin.d_in)).astype(np.float32)
        want = x @ dequantize_blockwise(lin.qweight) + lin.bias.data
        np.testing.assert_array_equal(lin(Tensor(x)).data, want)


def test_config_validation():
    with pytest.raises(ConfigError):
        QuantConfig(block_size=1)
    with pytest.raises(ConfigError):
        QuantConfig(codebook="fp4")
    with pytest.raises(ConfigError):
        QuantConfig(dq_group=1)
