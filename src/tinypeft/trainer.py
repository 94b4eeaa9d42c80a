"""Training loop: warmup+cosine scheduling, gradient accumulation, clipping,
checkpoint cadence, metrics logging, optional paged optimizer state, and
grid/random hyperparameter search.

Everything is a pure function of (seed, config, dataset): the data order of
epoch e is recomputed from the seed, and the dropout stream and the open
logging window live in the serialized trainer state, so a stopped and
resumed run is bitwise equal to one that never stopped, in its weights and
in the losses it logs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import resource
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import IGNORE_LABEL, TrainingExample
from .errors import ConfigError, DataError, NumericError, StateError
from .model import CausalLM
from .optim import AdamW, clip_global_norm, global_grad_norm
from .rng import RngState
from .store import check_tensors, is_count, load_archive, save_archive
from .tensor import backward

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    output_dir: str = "runs/default"
    per_device_train_batch_size: int = 2
    gradient_accumulation_steps: int = 2
    optim: str = "adamw_32bit"  # adamw_32bit | paged_adamw_32bit
    save_steps: int = 10
    logging_steps: int = 10
    learning_rate: float = 2e-4
    max_grad_norm: float = 0.3
    max_steps: int = 60
    warmup_ratio: float = 0.03
    lr_scheduler_type: str = "cosine"  # cosine | constant
    seed: int = 42
    epochs: int | None = None  # alternative stop criterion
    weight_decay: float = 0.0
    paging_budget: int = 8  # resident pages when optim is paged

    def __post_init__(self):
        if self.max_steps < 1 and not (self.epochs and self.epochs >= 1):
            raise ConfigError("need max_steps >= 1 or epochs >= 1")
        for name in ("per_device_train_batch_size", "gradient_accumulation_steps",
                     "save_steps", "logging_steps", "paging_budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.max_grad_norm > 0:
            raise ConfigError(f"max_grad_norm must be > 0, got {self.max_grad_norm}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup_ratio must be in [0,1), got {self.warmup_ratio}")
        if self.optim not in ("adamw_32bit", "paged_adamw_32bit"):
            raise ConfigError(f"unknown optim {self.optim!r}")
        if self.lr_scheduler_type not in ("cosine", "constant"):
            raise ConfigError(f"unknown scheduler {self.lr_scheduler_type!r}")


# the TrainConfig fields a run's trajectory depends on; a resume must keep them
TRAJECTORY_FIELDS = ("seed", "per_device_train_batch_size", "gradient_accumulation_steps",
                     "max_steps", "epochs", "learning_rate", "warmup_ratio",
                     "lr_scheduler_type", "max_grad_norm", "weight_decay")


@dataclass
class MetricsRecord:
    step: int
    training_loss: float
    learning_rate: float
    wall_ms: int
    paging_evictions: int  # optimizer page evictions in this window
    grad_norm: float  # global gradient norm before clipping, at this step
    clip_factor: float  # the factor clipping applied at this step (1.0: none)
    step_ms: float  # mean wall time of the window's train_step calls
    tokens_per_s: float  # the window's non-pad input tokens over that time
    minor_faults: int  # the process's minor page faults during those calls

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class LogWindow:
    """What the steps since the last metrics record add up to. Its losses and
    evictions are trainer state: a checkpoint saves them, so a resumed run
    logs what a straight run logs. The timing and faults are not: a checkpoint
    is a function of (seed, config, dataset), so the timed fields restart at
    resume and cover the steps this process ran."""

    losses: list = field(default_factory=list)
    evictions: int = 0  # optimizer page evictions during the steps
    timed: int = 0  # steps timed in this process
    seconds: float = 0.0  # their wall time
    tokens: int = 0  # their non-pad input tokens
    faults: int = 0  # minor page faults during them


def lr_at_step(config: TrainConfig, s: int, total_steps: int | None = None) -> float:
    """Linear warmup to learning_rate, then cosine decay to 0 (or constant).

    Warmup length is ceil(warmup_ratio * total); the first applied lr is
    learning_rate * 1/w, the closed left end of "from 0 to learning_rate".
    """
    total = total_steps if total_steps is not None else config.max_steps
    if s < 0 or s > total:
        raise ConfigError(f"step {s} outside [0, {total}]")
    w = math.ceil(config.warmup_ratio * total)
    if s < w:
        return config.learning_rate * (s + 1) / w
    if config.lr_scheduler_type == "constant":
        return config.learning_rate
    denom = max(1, total - w)
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * (s - w) / denom))


def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    # recomputable from (seed, epoch) alone, so the data cursor stays tiny
    return RngState((seed * 1_000_003 + epoch) & 0x7FFFFFFFFFFFFFFF).permutation(n)


def collate(examples: list[TrainingExample], pad_id: int):
    """Right-pad a micro-batch to its longest sequence."""
    width = max(e.length for e in examples)
    ids = np.full((len(examples), width), pad_id, dtype=np.int64)
    labels = np.full((len(examples), width), IGNORE_LABEL, dtype=np.int64)
    for i, e in enumerate(examples):
        ids[i, : e.length] = e.input_ids
        labels[i, : e.length] = e.labels
    return ids, labels


class Trainer:
    """Owns one model + optimizer + data cursor for the duration of a run."""

    def __init__(self, model: CausalLM, dataset: list[TrainingExample],
                 config: TrainConfig, pad_id: int):
        if not dataset:
            raise DataError("dataset is empty")
        if not model.trainable_parameters():
            raise ConfigError("model has no trainable parameters")
        try:
            os.makedirs(config.output_dir, exist_ok=True)
            probe = os.path.join(config.output_dir, ".write_probe")
            with open(probe, "w") as f:
                f.write("")
            os.unlink(probe)
        except OSError as e:
            raise DataError(f"output_dir {config.output_dir!r} is not writable: {e}")

        self.model = model
        self.dataset = dataset
        self.config = config
        self.pad_id = pad_id
        self.rng = RngState(config.seed)
        self.global_step = 0
        self.epoch = 0
        self.offset = 0
        self.metrics: list[MetricsRecord] = []
        self.step_losses: list[float] = []
        self.window = LogWindow()
        self.clip = (0.0, 1.0)  # (grad norm, clip factor) of the last step
        paged = config.optim == "paged_adamw_32bit"
        self.optimizer = AdamW(model.trainable_parameters(), config.weight_decay,
                               os.path.join(config.output_dir, ".paging"),
                               config.paging_budget if paged else None)
        self.total_steps = self._total_steps()
        self._frozen = self._frozen_digests()
        self._perm = _epoch_permutation(config.seed, 0, len(dataset))

    def _total_steps(self) -> int:
        cfg = self.config
        if cfg.epochs:
            per_epoch = len(self.dataset) // cfg.per_device_train_batch_size
            per_epoch = max(1, per_epoch // cfg.gradient_accumulation_steps)
            return per_epoch * cfg.epochs
        return cfg.max_steps

    # -- data ----------------------------------------------------------------

    def _next_micro_batch(self) -> list[TrainingExample]:
        bs = self.config.per_device_train_batch_size
        if self.offset + bs > len(self.dataset):
            self.epoch += 1
            self.offset = 0
            self._perm = _epoch_permutation(self.config.seed, self.epoch, len(self.dataset))
        picks = self._perm[self.offset : self.offset + bs]
        self.offset += bs
        return [self.dataset[int(i)] for i in picks]

    # -- stepping ------------------------------------------------------------

    def train_step(self) -> float:
        t0 = time.perf_counter()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evictions = self.optimizer.evictions
        cfg = self.config
        acc = cfg.gradient_accumulation_steps
        inv = np.float32(1.0 / acc)
        loss_total = 0.0
        tokens = 0
        params = self.model.trainable_parameters()
        try:
            # A blow-up raises at its first overflow instead of warning and
            # carrying nans on; underflow stays quiet, as the masked attention
            # scores underflow by design.
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for _ in range(acc):
                    batch = self._next_micro_batch()
                    tokens += sum(e.length for e in batch)
                    ids, labels = collate(batch, self.pad_id)
                    loss = self.model.lm_loss(ids, labels, training=True, rng=self.rng)
                    backward(loss, inv)
                    loss_total += float(loss.data * inv)
                norm = global_grad_norm(params)
        except (NumericError, FloatingPointError) as e:
            # raised before the optimizer update, so weights and checkpoints stay clean
            raise NumericError(f"step {self.global_step + 1}: {e}") from e
        self.clip = (norm, clip_global_norm(params, cfg.max_grad_norm, norm))
        lr = lr_at_step(cfg, self.global_step, self.total_steps)
        self.optimizer.step(lr)
        self.optimizer.zero_grad()
        self.global_step += 1
        self.step_losses.append(loss_total)
        w = self.window
        w.losses.append(loss_total)
        w.tokens += tokens
        w.evictions += self.optimizer.evictions - evictions
        w.timed += 1
        w.seconds += time.perf_counter() - t0
        w.faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return loss_total

    def train(self, stop_after: int | None = None) -> dict:
        """Run to the step budget; returns a summary dict.

        ``stop_after`` interrupts the run once that global step is reached
        without touching the schedule, so a later ``resume`` continues the
        same trajectory.
        """
        cfg = self.config
        limit = self.total_steps if stop_after is None else min(stop_after, self.total_steps)
        if self.global_step >= limit:
            log.warning("already at step %d of %d, nothing to do",
                        self.global_step, limit)
            return self.summary()
        metrics_path = os.path.join(cfg.output_dir, "metrics.jsonl")
        if self.global_step == 0:
            open(metrics_path, "w").close()  # a fresh run starts the log, a resumed one appends
        t0 = time.monotonic()
        while self.global_step < limit:
            self.train_step()
            s = self.global_step
            if s % cfg.logging_steps == 0 or s == self.total_steps:
                w = self.window
                rec = MetricsRecord(
                    step=s,
                    # mean loss since the previous record, not a single-step sample
                    training_loss=float(np.mean(w.losses)),
                    learning_rate=lr_at_step(cfg, s - 1, self.total_steps),
                    wall_ms=int((time.monotonic() - t0) * 1000),
                    paging_evictions=w.evictions,
                    grad_norm=self.clip[0],
                    clip_factor=self.clip[1],
                    step_ms=w.seconds * 1000 / w.timed,
                    tokens_per_s=w.tokens / w.seconds if w.seconds > 0 else 0.0,
                    minor_faults=w.faults,
                )
                self.window = LogWindow()
                if not self.metrics or self.metrics[-1].step != s:
                    self.metrics.append(rec)
                    with open(metrics_path, "a") as f:
                        f.write(rec.to_json() + "\n")
            if s % cfg.save_steps == 0:
                self.save_checkpoint()
        self.audit_frozen()
        return self.summary()

    def summary(self) -> dict:
        mean = float(np.mean(self.step_losses)) if self.step_losses else float("nan")
        return {
            "global_step": self.global_step,
            "training_loss": mean,
            "epoch": round(self.epoch + self.offset / max(1, len(self.dataset)), 2),
        }

    def _frozen_digests(self) -> dict[str, str]:
        """Name -> sha256 of every frozen parameter's bytes."""
        return {p.name: hashlib.sha256(np.ascontiguousarray(p.data)).hexdigest()
                for p in self.model.parameters() if not p.requires_grad}

    def audit_frozen(self):
        """Assert no frozen parameter byte changed since the run began."""
        now = self._frozen_digests()
        for name, digest in self._frozen.items():
            if now.get(name) != digest:
                raise StateError(f"frozen parameter {name!r} changed during training")

    # -- checkpointing -------------------------------------------------------

    def save_checkpoint(self, path: str | None = None):
        path = path or os.path.join(
            self.config.output_dir, f"checkpoint-{self.global_step}", "state.pfwa"
        )
        meta = {
            "kind": "checkpoint",
            "global_step": self.global_step,
            "epoch": self.epoch,
            "offset": self.offset,
            "rng_state": self.rng.get_state(),
            "train_config": asdict(self.config),
            "step_losses": self.step_losses,
            "log_window": {"losses": self.window.losses, "evictions": self.window.evictions},
        }
        save_archive(path, self._state_tensors(), meta)

    def _state_tensors(self) -> dict[str, np.ndarray]:
        """What a checkpoint holds: every model parameter and moment."""
        tensors = {f"model.{n}": p.data for n, p in self.model.params.items()}
        tensors.update(self.optimizer.state_tensors())
        return tensors

    def resume(self, path: str):
        """Restore weights, moments, scheduler position, cursor and PRNG.

        The model must already carry the same adapter structure the
        checkpoint was saved with, and the config must agree with the saved
        one on ``TRAJECTORY_FIELDS``; the others (output_dir, save_steps,
        logging_steps, optim, paging_budget) leave the trajectory bitwise
        unchanged and may differ.
        """
        tensors, meta = load_archive(path)
        if meta.get("kind") != "checkpoint":
            raise DataError(f"{path}: not a checkpoint (kind={meta.get('kind')!r})")
        # every field and tensor is checked before anything is assigned
        for name in ("global_step", "epoch", "offset"):
            if not is_count(meta.get(name)):
                raise DataError(f"{path}: checkpoint field {name!r} is "
                                f"{meta.get(name)!r}, not a non-negative int")
        # one optimizer update per step: only older checkpoints record the count
        count = meta.get("optimizer_step_count", meta["global_step"])
        if count != meta["global_step"]:
            raise DataError(f"{path}: checkpoint field 'optimizer_step_count' is "
                            f"{count}, but 'global_step' is {meta['global_step']}")
        rng = RngState()
        try:
            rng.set_state(meta.get("rng_state"))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataError(f"{path}: checkpoint field 'rng_state' is malformed: {e!r}") from e
        # a checkpoint from before the log window was saved resumes with an
        # empty one, and its summary loss covers the resumed steps only; the
        # timing an older one saved is dropped
        try:
            step_losses = [float(x) for x in meta.get("step_losses", [])]
            saved = dict(meta.get("log_window", {}))
            for key in ("seconds", "tokens"):
                saved.pop(key, None)
            window = LogWindow(**saved)
        except (TypeError, ValueError) as e:
            raise DataError(f"{path}: malformed loss log in checkpoint: {e}") from e
        tensors = check_tensors(path, tensors, {k: v.shape for k, v in
                                                self._state_tensors().items()})
        saved = meta.get("train_config")
        if not isinstance(saved, dict):
            raise DataError(f"{path}: checkpoint field 'train_config' is missing or not an object")
        for name in TRAJECTORY_FIELDS:
            if saved.get(name) != getattr(self.config, name):
                raise DataError(f"{path}: checkpoint train_config {name} is {saved.get(name)!r},"
                                f" this run's is {getattr(self.config, name)!r}")
        self.optimizer.load_state_tensors(tensors, meta["global_step"])
        for name, p in self.model.params.items():
            p.data = tensors[f"model.{name}"]
        self.rng = rng
        self.global_step, self.epoch = meta["global_step"], meta["epoch"]
        self.offset = meta["offset"]
        self.step_losses, self.window = step_losses, window
        self._perm = _epoch_permutation(self.config.seed, self.epoch, len(self.dataset))
        self._frozen = self._frozen_digests()
        if self.global_step >= self.total_steps:
            log.warning("resumed at step %d with budget %d: nothing to train",
                        self.global_step, self.total_steps)
        return self


# -- hyperparameter search ---------------------------------------------------


@dataclass
class Trial:
    index: int
    overrides: dict
    objective: float


def hyperparameter_search(
    space: dict[str, list],
    run_trial,
    strategy: str = "grid",
    budget: int | None = None,
    seed: int = 0,
) -> list[Trial]:
    """Grid or seeded random search; run_trial(overrides) -> objective.

    Grid walks the full cartesian product in sorted key order. Random draws
    ``budget`` configs with a seeded PRNG. Trials come back sorted by
    objective ascending, ties broken by trial index.
    """
    if not space or any(not v for v in space.values()):
        raise ConfigError("search space is empty")
    keys = sorted(space)
    configs: list[dict] = []
    if strategy == "grid":
        for combo in itertools.product(*(space[k] for k in keys)):
            configs.append(dict(zip(keys, combo)))
    elif strategy == "random":
        if not budget or budget < 1:
            raise ConfigError("random search needs a positive budget")
        rng = RngState(seed)
        for _ in range(budget):
            configs.append({k: space[k][rng.randint(0, len(space[k]))] for k in keys})
    else:
        raise ConfigError(f"unknown search strategy {strategy!r}")

    trials = [Trial(i, cfg, float(run_trial(cfg))) for i, cfg in enumerate(configs)]
    return sorted(trials, key=lambda t: (t.objective, t.index))
