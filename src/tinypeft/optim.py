"""AdamW with decoupled weight decay, global-norm clipping, and an optional
paged backing store for the moment buffers.

Moments are f32 ("32-bit optimizer state"); the update order is fixed so a
run is bitwise reproducible, paged or not. A step writes in place only into
arrays the optimizer owns: the moments, the parameter and two scratch
buffers per parameter. It reads the gradient and never writes it, and the
arrays ``state_tensors`` returns change with the next step. Paging keeps the
least recently used pages in one preallocated memory-mapped slab per run, at
a fixed offset per parameter: an eviction is a slice copy, not a file write.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import OrderedDict

import numpy as np

from .errors import ConfigError, NumericError, StateError
from .tensor import Parameter


def global_grad_norm(params: list[Parameter]) -> float:
    """L2 norm over every parameter's gradient, summed in f64.

    A NaN or inf gradient raises NumericError naming the first parameter
    holding one.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            g = p.grad.astype(np.float64)
            total += float(np.square(g, out=g).sum())
    norm = total**0.5
    if not math.isfinite(norm):
        bad = next(p for p in params if p.grad is not None and not np.isfinite(p.grad).all())
        raise NumericError(f"non-finite gradient in parameter {bad.name!r}")
    return norm


def clip_global_norm(params: list[Parameter], max_norm: float,
                     norm: float | None = None) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the factor applied. ``norm`` is the ``global_grad_norm`` of
    ``params`` when the caller has it already; it is computed otherwise, so a
    non-finite gradient raises before any gradient is scaled. Norms already
    within f32 rounding of the threshold are left untouched, which makes
    clipping idempotent.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be > 0, got {max_norm}")
    if norm is None:
        norm = global_grad_norm(params)
    if norm <= max_norm * (1.0 + 1e-6):
        return 1.0
    factor = np.float32(max_norm / norm)
    for p in params:
        if p.grad is not None:
            p.grad *= factor
    return float(factor)


class PageTable:
    """LRU paging of per-parameter moment buffers into one preallocated slab.

    One page holds one parameter's (m, v) pair. At most ``budget`` pages stay
    resident; the rest live in a single f32 ``np.memmap`` file,
    ``<scratch_dir>/moments.f32``, created fresh for this table. Every page
    has a fixed slot in it, laid out from ``shapes`` (name -> shape), so an
    eviction is a slice copy into the slab and a reload a copy out of it.
    Both copies are byte-exact, so paging never changes numerics.
    """

    def __init__(self, scratch_dir: str, budget: int, shapes: dict[str, tuple[int, ...]]):
        if budget < 1:
            raise ConfigError(f"paging budget must be >= 1 page, got {budget}")
        self.budget = budget
        self.resident: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self.evictions = 0
        # name -> (start of m, start of v, end of v, shape); v follows m
        self._slots: dict[str, tuple[int, int, int, tuple[int, ...]]] = {}
        end = 0
        for name, shape in shapes.items():
            n = math.prod(shape)
            self._slots[name] = (end, end + n, end + 2 * n, tuple(shape))
            end += 2 * n
        os.makedirs(scratch_dir, exist_ok=True)
        path = os.path.join(scratch_dir, "moments.f32")
        # a new inode, so a table still mapping an earlier slab here keeps it
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        slab = np.memmap(path, dtype=np.float32, mode="w+", shape=(max(end, 1),))
        # a plain view (it keeps the mapping alive): slices and copies are ndarrays
        self._slab = slab.view(np.ndarray)

    def put(self, name: str, m: np.ndarray, v: np.ndarray):
        self.resident[name] = (m, v)
        self.resident.move_to_end(name)
        self._evict_over_budget()

    def get(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name in self.resident:
            self.resident.move_to_end(name)
            return self.resident[name]
        m, v = self._read(name)
        self.resident[name] = (m, v)
        self._evict_over_budget()
        return m, v

    def _read(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        a, b, c, shape = self._slots[name]
        return self._slab[a:b].reshape(shape).copy(), self._slab[b:c].reshape(shape).copy()

    def _evict_over_budget(self):
        while len(self.resident) > self.budget:
            victim, (m, v) = self.resident.popitem(last=False)
            a, b, c, _ = self._slots[victim]
            self._slab[a:b] = m.reshape(-1)
            self._slab[b:c] = v.reshape(-1)
            self.evictions += 1

    def flush(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Every page of this table: the resident ones plus copies of the
        slab slots (used for checkpointing)."""
        return {name: self.resident[name] if name in self.resident else self._read(name)
                for name in self._slots}


class AdamW:
    """Decoupled-weight-decay Adam over the trainable parameters of a model."""

    def __init__(
        self,
        params: list[Parameter],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = [p for p in params if p.trainable]
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names in optimizer")
        self.beta1 = np.float32(beta1)
        self.beta2 = np.float32(beta2)
        self.eps = np.float32(eps)
        self.weight_decay = np.float32(weight_decay)
        self.step_count = 0
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {
            p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in self.params
        }
        self._pages: PageTable | None = None

    def enable_paging(self, scratch_dir: str, budget: int):
        """Move moment storage behind an LRU page table."""
        self._pages = PageTable(scratch_dir, budget,
                                {name: m.shape for name, (m, _) in self._moments.items()})
        for name, (m, v) in self._moments.items():
            self._pages.put(name, m, v)
        self._moments = {}

    @property
    def evictions(self) -> int:
        return self._pages.evictions if self._pages else 0

    def _get_moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if self._pages is not None:
            return self._pages.get(name)
        return self._moments[name]

    def _put_moments(self, name: str, m: np.ndarray, v: np.ndarray):
        if self._pages is not None:
            self._pages.put(name, m, v)
        else:
            self._moments[name] = (m, v)

    def step(self, lr: float):
        """One AdamW update with bias correction. Grads are left untouched."""
        if lr < 0:
            raise ConfigError(f"lr must be >= 0, got {lr}")
        self.step_count += 1
        t = self.step_count
        lr = np.float32(lr)
        bc1 = np.float32(1.0 - float(self.beta1) ** t)
        bc2 = np.float32(1.0 - float(self.beta2) ** t)
        c1, c2 = np.float32(1.0) - self.beta1, np.float32(1.0) - self.beta2
        for p in self.params:
            if p.grad is None:
                raise StateError(f"parameter {p.name!r} has no gradient before step")
            g = p.grad
            m, v = self._get_moments(p.name)
            # m = beta1 m + (1 - beta1) g; v = beta2 v + (1 - beta2) g^2
            t = np.multiply(g, c1)
            m *= self.beta1
            m += t
            np.multiply(g, g, out=t)
            t *= c2
            v *= self.beta2
            v += t
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            t += self.eps
            u = m / bc1
            u /= t
            u *= lr
            p.data -= u
            if self.weight_decay > 0:
                np.multiply(p.data, lr * self.weight_decay, out=u)
                p.data -= u
            self._put_moments(p.name, m, v)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    # -- serialization -------------------------------------------------------

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of all moments, for checkpointing."""
        moments = self._pages.flush() if self._pages else self._moments
        out: dict[str, np.ndarray] = {}
        for name, (m, v) in sorted(moments.items()):
            out[f"optim.m.{name}"] = m
            out[f"optim.v.{name}"] = v
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray], step_count: int):
        """Adopt moments that ``store.check_tensors`` checked (``Trainer.resume``)."""
        self.step_count = step_count
        for p in self.params:
            self._put_moments(p.name, tensors[f"optim.m.{p.name}"], tensors[f"optim.v.{p.name}"])
