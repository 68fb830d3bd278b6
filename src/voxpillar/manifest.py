"""Named-tensor weight manifests and deterministic seeded initialization."""
from __future__ import annotations

import base64
import itertools
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor, as_completed
from decimal import Decimal

import numpy as np

from .errors import FormatError, OutOfRange, ShapeMismatch
from .formats import _atomic_write_json, _check_numbers, _is_count, _read_json

# Tensors at or below this element count are stored as inline JSON arrays.
_INLINE_LIMIT = 64

# Largest seeded model, in float64 bytes, that resolve_weights generates.
SEEDED_BYTES_CAP = 1 << 30

# Values per draw when seeding: the stream passes through one float64 buffer
# of this length, so no tensor-sized float64 array is ever allocated.
_SEED_CHUNK = 1 << 16


def load_manifest(path) -> dict[str, np.ndarray]:
    """Read a weight manifest: {"tensors": {name: {"shape", "values"}}}.

    Values are either a base64 string of little-endian f32 or a nested JSON
    array for small tensors. A base64 tensor stays float32 (read only, on
    the file's bytes); an inline array becomes float64, since a hand-written
    value need not be a float32 one.
    """
    doc = _read_json(path, "weight manifest")
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
                arr = np.frombuffer(raw, dtype="<f4")
            else:
                arr = np.asarray(values)
                if arr.dtype.kind not in "iuf":  # strings, bools, nulls, objects
                    raise ValueError(f"got {arr.dtype} elements")
                # NumPy reads booleans among numbers as 0 and 1
                flat = [values]
                for _ in range(arr.ndim):
                    flat = itertools.chain.from_iterable(flat)
                _check_numbers(flat)
                arr = arr.astype(np.float64).ravel()
        except (ValueError, FormatError) as exc:  # binascii.Error, ragged nesting: ValueErrors
            raise FormatError(f"tensor {name!r}: values must be base64 little-endian f32 or a "
                              f"numeric array: {exc}") from exc
        if arr.size != math.prod(shape):
            raise FormatError(f"tensor {name!r}: {arr.size} values for shape {shape}")
        if not np.isfinite(arr).all():
            raise FormatError(f"tensor {name!r} contains non-finite values")
        tensors[name] = arr.reshape(shape)
    return tensors


def save_manifest(path, tensors: dict[str, np.ndarray]):
    """Write `tensors` as a manifest, streamed into the file. A tensor above _INLINE_LIMIT
    values is base64 of its f32 bytes (a float32 tensor's own; any other dtype is rounded
    through float64), a smaller one a JSON array of its float64 values."""
    doc = {"tensors": {}}
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.size <= _INLINE_LIMIT:
            values = arr.astype(np.float64).tolist()
        else:
            arr = arr if arr.dtype == np.dtype("<f4") else np.asarray(arr, np.float64).astype("<f4")
            values = base64.b64encode(np.ascontiguousarray(arr)).decode("ascii")
        doc["tensors"][name] = {"shape": list(arr.shape), "values": values}
    _atomic_write_json(path, doc)


def fill_seeded(name: str, values: np.ndarray, seed: int):
    """Fill the C-contiguous float32 array `values` with the seeded weights of tensor
    `name`.

    The stream is keyed by (seed, crc32(name)) so a tensor's values do not
    depend on the order weights are materialized in; that is what makes
    filling several tensors at once from different threads exact. The
    values equal, bit for bit, rng.normal(0.0, scale, shape).astype("<f4"):
    NumPy computes loc + scale * z, and `+= 0.0` keeps that sum's sign of
    zero. The stream is drawn _SEED_CHUNK values at a time, which gives the
    same values as one draw.
    """
    shape = values.shape
    rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))])
    fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else int(shape[0])
    scale = 1.0 / np.sqrt(max(fan_in, 1))
    flat = values.reshape(-1)
    draw = np.empty(min(flat.size, _SEED_CHUNK))
    for lo in range(0, flat.size, _SEED_CHUNK):
        n = min(_SEED_CHUNK, flat.size - lo)
        z = draw[:n]
        rng.standard_normal(out=z)
        z *= scale
        z += 0.0
        # storing rounds to float32, which keeps seeded and manifest-loaded weights on
        # the same value lattice
        flat[lo:lo + n] = z


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _seed_tensors(required: dict[str, tuple[int, ...]], seed: int,
                  workers: int) -> dict[str, np.ndarray]:
    """Every required tensor seeded, filled by `workers` threads, largest first.

    The outputs are allocated here, in `required` order, and the workers only
    fill them, so concurrency adds no copy. With one worker (or none) the
    calling thread fills them and no thread starts. The first fill to raise
    propagates its exception; the fills not yet started are cancelled and
    every worker has exited before this returns or raises.
    """
    out = {name: np.empty(shape, dtype=np.float32) for name, shape in required.items()}
    order = sorted(out, key=lambda name: out[name].size, reverse=True)
    if workers <= 1:
        for name in order:
            fill_seeded(name, out[name], seed)
        return out
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(fill_seeded, name, out[name], seed) for name in order]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return out


def gib(size: int) -> str:
    """`size` bytes in GiB to three significant digits. Decimal takes any int, where a
    float division overflows past about 1e308 bytes."""
    return f"{Decimal(size) / 2**30:.3g}"


def check_seeded_size(count: int):
    """Raise OutOfRange when `count` float64 weights exceed SEEDED_BYTES_CAP."""
    size = 8 * count
    if size > SEEDED_BYTES_CAP:
        raise OutOfRange(f"the model needs {gib(size)} GiB of float64 weights, above the "
                         f"{SEEDED_BYTES_CAP >> 30} GiB cap; use fewer layers or smaller "
                         f"channel widths")


def resolve_weights(required: dict[str, tuple[int, ...]], manifest: dict[str, np.ndarray] | None,
                    seed: int) -> dict[str, np.ndarray]:
    """All model tensors, either validated from a manifest or seeded.

    A provided manifest must cover every required name with matching shapes;
    its float32 tensors are returned as they are and any other becomes
    float64. With no manifest every tensor is generated from the seed as
    float32, after checking that the whole model fits SEEDED_BYTES_CAP, on
    as many threads as the process has CPUs (at most one per tensor). The
    values do not depend on the thread count. Each layer widens its own
    tensors to float64 when it runs, so a model is stored at 4 bytes a
    weight and computed in float64.
    """
    if manifest is None:
        check_seeded_size(sum(math.prod(shape) for shape in required.values()))
        return _seed_tensors(required, seed, min(_cpu_count(), len(required)))
    missing = sorted(set(required) - set(manifest))
    if missing:
        raise ShapeMismatch(f"weight manifest is missing tensors: {', '.join(missing)}")
    out = {}
    for name, shape in required.items():
        arr = manifest[name]
        if tuple(arr.shape) != tuple(shape):
            raise ShapeMismatch(f"tensor {name!r} has shape {arr.shape}, model expects {shape}")
        out[name] = arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64)
    return out
