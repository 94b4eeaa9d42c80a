"""Arithmetic the benchmark reports with: percentiles and their sample-count
rule, input-defined token counts, loss digests and a pausable stopwatch.

Kept free of tinypeft imports so the tests can check it on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time

import numpy as np

# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10


def samples_beyond(n: int, q: int) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - max(1, -(-q * n // 100))


def min_samples(q: int) -> int:
    """Fewest samples whose nearest-rank q-th percentile has TAIL_SAMPLES beyond it."""
    n = 1
    while samples_beyond(n, q) < TAIL_SAMPLES:
        n += 1
    return n


def percentile(samples, q: int) -> float:
    """Nearest-rank q-th percentile (an observed value).

    Raises ValueError when fewer than min_samples(q) samples support it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(samples)
    if samples_beyond(n, q) < TAIL_SAMPLES:
        raise ValueError(f"p{q} needs at least {min_samples(q)} samples, got {n}")
    rank = max(1, -(-q * n // 100))
    return float(sorted(samples)[rank - 1])


def train_tokens(input_ids: np.ndarray, pad_id: int) -> int:
    """Non-pad input tokens in a collated micro-batch."""
    return int((np.asarray(input_ids) != pad_id).sum())


def eval_tokens(example_lengths, candidates) -> int:
    """Tokens an evaluation presents, defined by its inputs alone.

    example_lengths: input length of every example given to perplexity.
    candidates: (prompt_len, label_len) for every classification candidate,
    each scored as BOS + prompt + label.
    """
    return int(sum(example_lengths)) + sum(1 + p + l for p, l in candidates)


def loss_digest(losses) -> str:
    """Digest of a loss trajectory: equal digests mean bitwise-equal losses."""
    raw = np.asarray(losses, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def tracing_overhead(times) -> tuple[float, float]:
    """Extra seconds the traced actions took, and their share of the
    untraced time, from (untraced seconds, traced seconds) per action kind.

    Per kind, the median traced action is compared with the median untraced
    one and the difference counted once per traced action; kinds that ran
    only one way are left out.
    """
    extra = base = 0.0
    for plain, traced in times:
        if plain and traced:
            p = statistics.median(plain)
            extra += len(traced) * (statistics.median(traced) - p)
            base += len(traced) * p
    return extra, extra / base


# A fixed mix of small matmuls, elementwise numpy and interpreter work, like
# the library's own; it never calls tinypeft, so only the host changes it.
_PROBE_A = np.linspace(-1, 1, 256 * 64, dtype=np.float32).reshape(256, 64)
_PROBE_B = np.linspace(1, -1, 64 * 192, dtype=np.float32).reshape(64, 192)
_PROBE_TABLE = {i: (i * 7) & 255 for i in range(256)}
# median speed_probe() between actions on the reference host (2 vCPU x86,
# one BLAS thread); it only sets the scale of the reported numbers
PROBE_REFERENCE_S = 0.0069


def speed_probe() -> float:
    """Seconds the host takes for the fixed probe work."""
    t0 = time.perf_counter()
    acc = 0.0
    for r in range(40):
        c = _PROBE_A @ _PROBE_B
        acc += float(np.exp(c * np.float32(0.01)).sum())
        for i in range(200):
            acc += _PROBE_TABLE[(i + r) & 255]
    return time.perf_counter() - t0


def host_factor(probes) -> float:
    """Reference-host seconds per second of this host, from probes taken
    through the run: a time times this factor reads as on the reference host."""
    return PROBE_REFERENCE_S / statistics.median(probes)


class Stopwatch:
    """Wall time over a window, with spans inside it left out via paused()."""

    def __init__(self):
        self.elapsed = 0.0
        self._t0 = None

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        self.elapsed += time.perf_counter() - self._t0
        self._t0 = None

    @contextlib.contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()
