"""Bit-exact binary persistence.

Archive layout (all integers little-endian, text UTF-8):

    magic "PFWA" | version u32 | manifest_len u64 | manifest JSON |
    payload | checksum u64

The manifest holds {tensors: [{name, shape, dtype, offset, length}], meta}
with tensors sorted by name and offsets assigned in that order, so a
save/load/save cycle is byte-identical. The checksum is the first 8 bytes
of SHA-256 over everything before it and is verified before any tensor is
materialized. A save streams: the header and manifest, then each tensor's
bytes straight from its array, go into a temp file renamed into place, and
the checksum is updated with the same bytes as they are written, so no copy
of the archive is ever held in memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
import typing
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, DataError, StateError, read_bytes
from .model import LN_EPS, CausalLM, CausalLMConfig, build_model, model_shapes
from .peft import (
    BottleneckAdapterConfig,
    LoraConfig,
    adopt_quantized,
    bottleneck_shapes,
    build_adapter,
    lora_shapes,
    quantize_linears,
)
from .quant import QuantConfig

MAGIC = b"PFWA"
VERSION = 1

# Config fields that only ever held one value, by meta key: archives
# written before they were removed carry them, at that value.
_RETIRED = {
    "model_config": {"mlp_ratio": 4, "positional": "learned_absolute",
                     "layer_norm_eps": LN_EPS},
    "lora_config": {"bias_mode": "none", "task_type": "causal_lm"},
    "bottleneck_config": {"activation": "gelu"},
}

_DTYPES = {"f32": np.float32, "u8": np.uint8, "i64": np.int64}


def _checksum(data) -> bytes:
    return hashlib.sha256(data).digest()[:8]


def save_archive(path: str, tensors: dict[str, np.ndarray], meta: dict | None = None):
    """Write tensors + JSON metadata atomically."""
    entries, arrays, offset = [], [], 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        dtype = next((k for k, t in _DTYPES.items() if arr.dtype == t), "f32")  # others as f32
        arr = arr.astype(_DTYPES[dtype], copy=False)
        entries.append({
            "name": name, "shape": list(arr.shape), "dtype": dtype,
            "offset": offset, "length": arr.nbytes,
        })
        arrays.append(arr)
        offset += arr.nbytes
    manifest = json.dumps(
        {"tensors": entries, "meta": meta or {}},
        sort_keys=True, separators=(",", ":"), ensure_ascii=False,
    ).encode("utf-8")
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            h = hashlib.sha256()
            # uint8 views: memoryview(arr).cast("B") rejects zero-size shapes
            for chunk in (MAGIC + struct.pack("<IQ", VERSION, len(manifest)), manifest,
                          *(arr.reshape(-1).view(np.uint8) for arr in arrays)):
                f.write(chunk)
                h.update(chunk)
            f.write(h.digest()[:8])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_archive(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read and verify an archive; returns (tensors, meta)."""
    body = read_bytes(path)
    if len(body) < 24 or body[:4] != MAGIC:
        raise DataError(f"{path}: not a PFWA archive")
    if _checksum(memoryview(body)[:-8]) != body[-8:]:
        raise DataError(f"{path}: checksum mismatch, archive is corrupted")
    (version,) = struct.unpack_from("<I", body, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported archive version {version}")
    (mlen,) = struct.unpack_from("<Q", body, 8)
    mstart = 16
    try:
        manifest = json.loads(body[mstart : mstart + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: bad manifest: {e}")
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest is not an object")
    entries, meta = manifest.get("tensors"), manifest.get("meta", {})
    if not isinstance(entries, list):
        raise DataError(f"{path}: manifest field 'tensors' is missing or not a list")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: manifest field 'meta' is not an object")
    pstart = mstart + mlen
    pend = len(body) - 8
    tensors: dict[str, np.ndarray] = {}
    for i, ent in enumerate(entries):
        name, shape, dtype, off, ln = _check_entry(path, i, ent)
        if name in tensors:
            raise DataError(f"{path}: tensor {name!r} listed twice")
        if pstart + off + ln > pend:
            raise DataError(f"{path}: tensor {name!r} out of bounds")
        arr = np.frombuffer(body, dtype=dtype, count=ln // dtype.itemsize,
                            offset=pstart + off)
        tensors[name] = arr.reshape(shape).copy()
    return tensors, meta


def is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _check_entry(path: str, i: int, ent) -> tuple:
    """Validate manifest entry i; returns (name, shape, dtype, offset, length)."""
    if not isinstance(ent, dict):
        raise DataError(f"{path}: manifest entry {i} is not an object")
    for key in ("name", "shape", "dtype", "offset", "length"):
        if key not in ent:
            raise DataError(f"{path}: manifest entry {i} missing field {key!r}")
    name, shape = ent["name"], ent["shape"]
    if not isinstance(name, str):
        raise DataError(f"{path}: manifest entry {i}: field 'name' is not a string")
    if not isinstance(shape, list) or not all(is_count(n) for n in shape):
        raise DataError(f"{path}: tensor {name!r}: field 'shape' is not a list of sizes")
    if not isinstance(ent["dtype"], str) or ent["dtype"] not in _DTYPES:
        raise DataError(f"{path}: tensor {name!r}: unknown dtype {ent['dtype']!r}")
    for key in ("offset", "length"):
        if not is_count(ent[key]):
            raise DataError(f"{path}: tensor {name!r}: field {key!r} is not a count")
    dtype = np.dtype(_DTYPES[ent["dtype"]])
    if ent["length"] != math.prod(shape) * dtype.itemsize:
        raise DataError(
            f"{path}: tensor {name!r}: field 'length' {ent['length']} does not fit "
            f"shape {shape} of {ent['dtype']}")
    return name, shape, dtype, ent["offset"], ent["length"]


def check_tensors(path: str, tensors: dict[str, np.ndarray],
                  shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """``tensors`` as f32 if they are exactly ``shapes`` (name -> shape), else
    DataError naming the file and the tensor. Every archive reader checks
    here before it assigns anything; ``load_archive``'s copies are adopted."""
    for name, arr in tensors.items():
        if name not in shapes:
            raise DataError(f"{path}: tensor {name!r} does not belong in this archive")
        if arr.shape != shapes[name]:
            raise DataError(f"{path}: tensor {name!r} has shape {arr.shape}, "
                            f"expected {shapes[name]}")
    missing = sorted(shapes.keys() - tensors.keys())
    if missing:
        raise DataError(f"{path}: tensor {missing[0]!r} is missing")
    return {name: arr.astype(np.float32, copy=False) for name, arr in tensors.items()}


# -- model / adapter archives ------------------------------------------------


def base_fingerprint(model: CausalLM, weights: dict[str, np.ndarray] | None = None) -> str:
    """Hash of the base config plus all base weight bytes. ``weights`` (name
    -> array) are hashed in place of the model's arrays of those names."""
    arrays = {name: model.params[name].data for name in model.base_names} | (weights or {})
    # the hashed config keeps the retired fields, so that adapters written
    # before their removal still match their base
    config = {**asdict(model.config), **_RETIRED["model_config"]}
    h = hashlib.sha256()
    h.update(json.dumps(config, sort_keys=True).encode())
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]))
    return h.hexdigest()


def save_model(model: CausalLM, path: str):
    """Persist a plain model (base weights only; adapters are saved apart)."""
    tensors = {n: p.data for n, p in model.params.items() if n in model.base_names}
    save_archive(path, tensors, {"kind": "model", "model_config": asdict(model.config)})


def check_type(value, hint):
    """``value`` if it has the config field type ``hint`` (a scalar type,
    ``int | None`` or ``list[str]``), else TypeError; an int is taken for a
    float and returned as one."""
    if hint is float and type(value) is int:
        return float(value)
    if hint == list[str]:
        ok = type(value) is list and all(type(t) is str for t in value)
    else:
        ok = type(value) in typing.get_args(hint) if hint == int | None else type(value) is hint
    if not ok:
        name = hint.__name__ if hint in (int, float, str, bool) else str(hint)
        raise TypeError(f"must be {name}, got {value!r}")
    return value


def _config_field(path: str, meta: dict, key: str, cls):
    """Build a config dataclass from meta[key], or raise DataError naming it.

    Every value must have its field's type, checked before anything uses
    it. A retired field at its one legal value is dropped; at any other
    value the archive needs a setting this version no longer has.
    """
    if not isinstance(meta.get(key), dict):
        raise DataError(f"{path}: meta field {key!r} is missing or not an object")
    fields = dict(meta[key])
    for name, legal in _RETIRED.get(key, {}).items():
        if name in fields and fields.pop(name) != legal:
            raise DataError(f"{path}: meta field {key!r}: {name} must be {legal!r}, "
                            f"got {meta[key][name]!r}")
    hints = typing.get_type_hints(cls)
    for name in fields.keys() & hints.keys():  # an unknown name fails in cls()
        try:
            fields[name] = check_type(fields[name], hints[name])
        except TypeError as e:
            raise DataError(f"{path}: meta field '{key}.{name}' {e}")
    try:
        return cls(**fields)
    except (TypeError, ValueError, ConfigError) as e:
        raise DataError(f"{path}: meta field {key!r} is invalid: {e}")


def load_model(path: str) -> CausalLM:
    """The model a model archive holds, built straight from its tensors."""
    tensors, meta = load_archive(path)
    if meta.get("kind") != "model":
        raise DataError(f"{path}: archive is not a model (kind={meta.get('kind')!r})")
    config = _config_field(path, meta, "model_config", CausalLMConfig)
    return build_model(config, check_tensors(path, tensors, model_shapes(config)))


# peft_method -> (config class, its meta key, the shapes the adapter adds)
_METHODS = {
    "lora": (LoraConfig, "lora_config", lora_shapes),
    "adapter": (BottleneckAdapterConfig, "bottleneck_config", bottleneck_shapes),
}


def save_adapter(model: CausalLM, path: str):
    """The parameters outside ``model.base_names``, with the base fingerprint;
    on a quantized base it also records the ``QuantConfig``."""
    cfg = model.adapter_config
    method = next((m for m, (cls, *_) in _METHODS.items() if isinstance(cfg, cls)), None)
    if method is None:
        raise DataError("model has no adapters to save")
    meta: dict = {"kind": "adapter", "base_fingerprint": base_fingerprint(model),
                  "peft_method": method, _METHODS[method][1]: asdict(cfg)}
    if model.quant_config is not None:
        meta["quant_config"] = asdict(model.quant_config)
    tensors = {n: p.data for n, p in model.params.items() if n not in model.base_names}
    save_archive(path, tensors, meta)


def load_adapter(base: CausalLM, path: str) -> CausalLM:
    """Build an adapter archive's adapter onto its base from the archive's
    checked tensors (``peft.build_adapter``), drawing nothing.

    An adapter trained on a quantized base carries its ``QuantConfig``: each
    f32 base weight is quantized once that way and the fingerprint is taken
    on those weights. The stored fingerprint must match exactly and the
    tensors must be the ones the adapter adds, else nothing is mutated. A
    base that already carries an adapter is refused before the read.
    """
    if base.adapter_config is not None:
        raise StateError(f"{path}: the base already carries an adapter")
    tensors, meta = load_archive(path)
    if meta.get("kind") != "adapter":
        raise DataError(f"{path}: archive is not an adapter (kind={meta.get('kind')!r})")
    stored = meta.get("base_fingerprint")
    if not isinstance(stored, str):
        raise DataError(f"{path}: meta field 'base_fingerprint' is missing or not a string")
    qcfg = (_config_field(path, meta, "quant_config", QuantConfig)
            if "quant_config" in meta else None)
    quantized = quantize_linears(base, qcfg) if qcfg is not None else {}
    fp = base_fingerprint(base, {name: w for name, (_, w) in quantized.items()})
    if stored != fp:
        raise DataError(
            f"{path}: adapter was trained on a different base "
            f"(archive {stored[:16]}..., model {fp[:16]}...)"
        )
    method = meta.get("peft_method")
    if not (isinstance(method, str) and method in _METHODS):
        raise DataError(f"{path}: unknown peft_method {method!r}")
    cls, key, layout = _METHODS[method]
    cfg = _config_field(path, meta, key, cls)
    try:
        shapes = layout(base, cfg)
    except ConfigError as e:
        raise DataError(f"{path}: adapter config does not fit the base: {e}")
    tensors = check_tensors(path, tensors, shapes)
    if qcfg is not None:
        adopt_quantized(base, qcfg, quantized)
    return build_adapter(base, cfg, tensors)
