"""Seeded, serializable random number generation.

Wraps numpy's PCG64 bit generator (128-bit state + 128-bit increment, i.e.
256 bits of internal state). The same seed produces the same draw sequence
on every platform, and the full state round-trips through a plain dict so
checkpoints can resume a run bitwise.

``keep_mask`` draws a dropout mask equal to ``uniform(shape) >= float32(p)``
without building the floats. numpy makes an f32 uniform from the stream's
next 32-bit word w as ``(w >> 8) * 2**-24``, which is exact, and PCG64 yields
its words as the low half of a 64-bit draw, then the high half, which it
buffers in ``has_uint32``/``uinteger``. With c = ceil(float32(p) * 2**24),
also exact, ``(w >> 8) * 2**-24 >= float32(p)`` holds exactly when
``w >> 8 >= c``, that is when ``w >= c << 8``. So comparing the raw words to
``c << 8`` gives the same bits, and the state is left as ``uniform`` leaves it.
"""

from __future__ import annotations

import math

import numpy as np

ALGORITHM_ID = "pcg64"


class RngState:
    """Deterministic PRNG used for init, dropout, shuffling and sampling."""

    def __init__(self, seed: int | None = 0):
        self._gen = np.random.Generator(np.random.PCG64(seed))

    # -- draws ---------------------------------------------------------------

    def gaussian(self, mean: float, std: float, shape) -> np.ndarray:
        """Normal draws as f32. std == 0 returns a constant tensor."""
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        if std == 0:
            return np.full(shape, np.float32(mean), dtype=np.float32)
        out = self._gen.standard_normal(size=shape, dtype=np.float32)
        return (out * np.float32(std) + np.float32(mean)).astype(np.float32)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=shape, dtype=np.float32)

    def keep_mask(self, shape, p: float) -> np.ndarray:
        """Bool mask equal to ``uniform(shape) >= float32(p)``, leaving the
        same state; see the module docstring."""
        out = np.empty(shape, dtype=bool)
        flat = out.reshape(-1)
        threshold = math.ceil(float(np.float32(p)) * 2**24) << 8  # 2**32 when p rounds to 1
        bg = self._gen.bit_generator
        st = bg.state
        first = min(flat.size, st["has_uint32"])  # the buffered high half comes first
        if first:
            flat[0] = st["uinteger"] >= threshold
            st["has_uint32"] = 0
        m = flat.size - first
        if m:
            words = bg.random_raw((m + 1) // 2).astype("<u8", copy=False).view("<u4")
            np.greater_equal(words[:m], threshold, out=flat[first:])
            st = bg.state
            st["has_uint32"], st["uinteger"] = m % 2, int(words[-1])
        bg.state = st
        return out

    def randint(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_weighted(self, probs: np.ndarray) -> int:
        """Index draw from a probability vector (sums to ~1)."""
        u = float(self._gen.random())
        c = np.cumsum(probs.astype(np.float64))
        return int(np.searchsorted(c, u * c[-1], side="right").clip(0, len(probs) - 1))

    # -- state ---------------------------------------------------------------

    def get_state(self) -> dict:
        st = self._gen.bit_generator.state
        return {
            "algorithm_id": ALGORITHM_ID,
            "state": str(st["state"]["state"]),
            "inc": str(st["state"]["inc"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }

    def set_state(self, d: dict) -> None:
        if d.get("algorithm_id") != ALGORITHM_ID:
            raise ValueError(f"unknown rng algorithm {d.get('algorithm_id')!r}")
        bg = np.random.PCG64()
        bg.state = {
            "bit_generator": "PCG64",
            "state": {"state": int(d["state"]), "inc": int(d["inc"])},
            "has_uint32": int(d["has_uint32"]),
            "uinteger": int(d["uinteger"]),
        }
        self._gen = np.random.Generator(bg)
