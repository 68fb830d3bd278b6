"""Named-tensor weight manifests and deterministic seeded initialization."""
from __future__ import annotations

import base64
import json
import math
import zlib

import numpy as np

from .errors import FormatError, OutOfRange, ShapeMismatch
from .formats import _atomic_write_bytes, _is_count

# Tensors at or below this element count are stored as inline JSON arrays.
_INLINE_LIMIT = 64

# Largest seeded model, in float64 bytes, that resolve_weights generates.
SEEDED_BYTES_CAP = 1 << 30


def load_manifest(path) -> dict[str, np.ndarray]:
    """Read a weight manifest: {"tensors": {name: {"shape", "values"}}}.

    Values are either a base64 string of little-endian f32 or a nested JSON
    array for small tensors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read weight manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or "tensors" not in doc or not isinstance(doc["tensors"], dict):
        raise FormatError(f"weight manifest {path} must contain a 'tensors' object")
    tensors = {}
    for name, entry in doc["tensors"].items():
        if not isinstance(entry, dict) or "shape" not in entry or "values" not in entry:
            raise FormatError(f"tensor {name!r} must carry 'shape' and 'values'")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise FormatError(f"tensor {name!r}: shape must be a list of non-negative ints, "
                              f"got {shape!r}")
        shape = tuple(shape)
        values = entry["values"]
        try:
            if isinstance(values, str):
                raw = base64.b64decode(values.encode("ascii"), validate=True)
                arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            else:
                arr = np.asarray(values)
                if arr.dtype.kind not in "iuf":  # strings, bools, nulls, objects
                    raise ValueError(f"got {arr.dtype} elements")
                arr = arr.astype(np.float64).ravel()
        except ValueError as exc:  # binascii.Error and ragged nesting are ValueErrors too
            raise FormatError(f"tensor {name!r}: values must be base64 little-endian f32 or a "
                              f"numeric array: {exc}") from exc
        if arr.size != math.prod(shape):
            raise FormatError(f"tensor {name!r}: {arr.size} values for shape {shape}")
        if not np.isfinite(arr).all():
            raise FormatError(f"tensor {name!r} contains non-finite values")
        tensors[name] = arr.reshape(shape)
    return tensors


def save_manifest(path, tensors: dict[str, np.ndarray]):
    doc = {"tensors": {}}
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        if arr.size <= _INLINE_LIMIT:
            values = arr.tolist()
        else:
            values = base64.b64encode(arr.astype("<f4").tobytes()).decode("ascii")
        doc["tensors"][name] = {"shape": list(arr.shape), "values": values}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    _atomic_write_bytes(path, text.encode("utf-8"))


def seeded_tensor(name: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Deterministic pseudo-random weights for one named tensor.

    The stream is keyed by (seed, crc32(name)) so a tensor's values do not
    depend on the order weights are materialized in.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))])
    fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else int(shape[0])
    scale = 1.0 / np.sqrt(max(fan_in, 1))
    # float32 round-trip keeps seeded and manifest-loaded weights on the
    # same value lattice
    return rng.normal(0.0, scale, size=shape).astype("<f4").astype(np.float64)


def resolve_weights(required: dict[str, tuple[int, ...]], manifest: dict[str, np.ndarray] | None,
                    seed: int) -> dict[str, np.ndarray]:
    """All model tensors, either validated from a manifest or seeded.

    A provided manifest must cover every required name with matching shapes;
    with no manifest every tensor is generated from the seed, after checking
    that the whole model fits SEEDED_BYTES_CAP.
    """
    if manifest is None:
        size = 8 * sum(math.prod(shape) for shape in required.values())
        if size > SEEDED_BYTES_CAP:
            raise OutOfRange(f"the seeded model needs {size / 2**30:.3g} GiB of weights, above "
                             f"the {SEEDED_BYTES_CAP >> 30} GiB cap; use smaller channel widths")
        return {name: seeded_tensor(name, shape, seed) for name, shape in required.items()}
    missing = sorted(set(required) - set(manifest))
    if missing:
        raise ShapeMismatch(f"weight manifest is missing tensors: {', '.join(missing)}")
    out = {}
    for name, shape in required.items():
        arr = manifest[name]
        if tuple(arr.shape) != tuple(shape):
            raise ShapeMismatch(f"tensor {name!r} has shape {arr.shape}, model expects {shape}")
        out[name] = np.asarray(arr, dtype=np.float64)
    return out
