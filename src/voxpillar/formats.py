"""Binary cloud files, tensor dumps, box JSON, and CSV emission.

All multi-byte values are little-endian. Writers go through a temp file
plus rename so partially written outputs never appear under the final name.
"""
from __future__ import annotations

import codecs
import contextlib
import itertools
import json
import os
import struct

import numpy as np

from .errors import DegenerateBox, FormatError, InvalidTensor
from .geometry import Box3D

CLOUD_MAGIC = b"VPF1"


def write_cloud(path, points: np.ndarray):
    """Write magic, u32 point count, then N x 4 f32 (x, y, z, intensity)."""
    pts = np.ascontiguousarray(np.asarray(points, dtype="<f4"))
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise FormatError(f"cloud must be (N, 4), got {pts.shape}")
    payload = CLOUD_MAGIC + struct.pack("<I", pts.shape[0]) + pts.tobytes()
    _atomic_write_bytes(path, payload)


def read_cloud(path) -> np.ndarray:
    """The (N, 4) float64 points of a cloud file, exactly its f32 values, column-major
    so that per-coordinate passes such as `density.vertical_density`'s x-y band read
    memory in order.

    The rows come in ascending x, ties (-0.0 with +0.0 among them) in file order:
    the permutation `np.argsort(x, kind="stable")` gives. `vertical_density` then
    takes each box's x band as one slab by binary search. Non-finite values are
    refused before the sort.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read cloud {path}: {exc}") from exc
    if len(data) < 8 or data[:4] != CLOUD_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {CLOUD_MAGIC!r}")
    (count,) = struct.unpack("<I", data[4:8])
    expected = 8 + count * 16
    if len(data) != expected:
        raise FormatError(f"{path}: {len(data)} bytes, expected {expected} for {count} points")
    pts = np.frombuffer(data, dtype="<f4", offset=8).reshape(count, 4)
    if not np.isfinite(pts).all():
        raise FormatError(f"{path}: cloud contains non-finite values")
    return np.take(pts, _stable_order(pts[:, 0]), axis=0).astype(np.float64, order="F")


def _stable_order(x) -> np.ndarray:
    """`np.argsort(x, kind="stable")` of finite f32 values, -0.0 tied with +0.0, by one
    sort of unique uint64 keys: each is the order-preserving uint32 image of a value's
    bits above its index, which a u32 count keeps below 2**32. At 100k points this
    takes about a tenth of the stable argsort's time."""
    bits = (x + np.float32(0.0)).view(np.int32)  # + 0.0 turns -0.0 into +0.0
    image = (bits ^ ((bits >> 31) & 0x7FFFFFFF)).view(np.uint32) ^ np.uint32(1 << 31)
    keys = image.astype(np.uint64) << 32
    keys |= np.arange(x.size, dtype=np.uint64)
    keys.sort()
    return (keys & 0xFFFFFFFF).astype(np.intp)


def dump_record_bytes(name: str, coords: np.ndarray, features: np.ndarray,
                      stride: int, extents) -> bytes:
    """One dump record: a JSON header line, then u32 coords and f32 features.

    Raises `InvalidTensor`, naming the record, when a feature is not finite
    as f32 (a value past the f32 range becomes inf in the cast).
    """
    coords = np.asarray(coords, dtype=np.int64)
    with np.errstate(over="ignore"):
        feats = np.asarray(features, dtype="<f4")
    if not np.isfinite(feats).all():
        raise InvalidTensor(f"record {name!r}: {int((~np.isfinite(feats)).sum())} features are "
                            f"not finite as f32")
    header = {
        "name": name,
        "stride": int(stride),
        "extents": [int(e) for e in extents],
        "channels": int(features.shape[1]),
        "count": int(coords.shape[0]),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    body = coords.astype("<u4").tobytes() + feats.tobytes()
    return head + body


def write_dump(path, records: list[tuple[str, np.ndarray, np.ndarray, int, tuple]]):
    """Write a sequence of (name, coords, features, stride, extents) records."""
    blob = b"".join(dump_record_bytes(*rec) for rec in records)
    _atomic_write_bytes(path, blob)


def read_dump(path) -> list[dict]:
    """Parse a dump file back into records with int coords and f32 features."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read dump {path}: {exc}") from exc
    records = []
    pos = 0
    while pos < len(data):
        eol = data.find(b"\n", pos)
        if eol < 0:
            raise FormatError(f"{path}: truncated header at byte {pos}")
        try:
            header = json.loads(data[pos:eol].decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, int digit limit
            raise FormatError(f"{path}: bad record header: {exc}") from exc
        count, ndim, channels = _record_shape(path, header)
        start = eol + 1
        coords_bytes = count * ndim * 4
        feats_bytes = count * channels * 4
        if start + coords_bytes + feats_bytes > len(data):
            raise FormatError(f"{path}: truncated payload for record {header.get('name')!r}")
        coords = np.frombuffer(data, dtype="<u4", offset=start,
                               count=count * ndim).reshape(count, ndim).astype(np.int64)
        feats = np.frombuffer(data, dtype="<f4", offset=start + coords_bytes,
                              count=count * channels).reshape(count, channels)
        records.append({"header": header, "coords": coords, "features": feats})
        pos = start + coords_bytes + feats_bytes
    return records


def _record_shape(path, header) -> tuple[int, int, int]:
    """(count, ndim, channels) of a dump record header, or FormatError."""
    if not isinstance(header, dict):
        raise FormatError(f"{path}: record header is not an object: {header!r}")
    name = header.get("name")
    count, channels, extents = (header.get(k) for k in ("count", "channels", "extents"))
    if not all(_is_count(v) for v in (count, channels)):
        raise FormatError(f"{path}: record {name!r}: count and channels must be "
                          f"non-negative ints, got {count!r} and {channels!r}")
    if not isinstance(extents, list) or not all(_is_count(e) for e in extents):
        raise FormatError(f"{path}: record {name!r}: extents must be a list of "
                          f"non-negative ints, got {extents!r}")
    return count, len(extents), channels


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):  # JSON true reads as 1
        raise FormatError(f"expected a number, got {value!r}")
    return value


def _check_numbers(values):
    """`_number`'s rule over many values at once, by one set of their types."""
    kinds = set(map(type, values)) - {int, float}
    if kinds:
        raise FormatError(f"expected numbers, got {', '.join(sorted(k.__name__ for k in kinds))}")


def _point_rows(points) -> list:
    """`points` if it is a JSON array of arrays; else a FormatError naming the other types."""
    kinds = set(map(type, points)) - {list} if isinstance(points, list) else {type(points)}
    if kinds:
        raise FormatError(f"points must be an array of rows, got "
                          f"{', '.join(sorted(k.__name__ for k in kinds))}")
    return points


def _as_int(value) -> int:
    if isinstance(_number(value), float) and not value.is_integer():
        raise FormatError(f"expected an integer, got {value}")
    return int(value)


def load_boxes(path) -> list[dict]:
    """Read a JSON array of box entries.

    Each entry is either a bare box object {"center", "dims", "heading"} or a
    wrapper carrying "box" plus optional "class", "id", "score", "points".
    Returns dicts with keys box/class/id/score/points.
    """
    doc = _read_json(path, "boxes")
    if not isinstance(doc, list):
        raise FormatError(f"{path}: expected a JSON array of boxes")
    out = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entry {i} is not an object")
        raw = entry.get("box", entry)
        # OverflowError: an integer too large for a float, such as 400 digits
        try:
            center, dims, heading = raw["center"], raw["dims"], raw["heading"]
            _check_numbers((*center, *dims, heading))
            box = Box3D(tuple(center), tuple(dims), heading)
        except (DegenerateBox, FormatError, KeyError, TypeError, ValueError,
                OverflowError) as exc:
            raise FormatError(f"{path}: entry {i} is not a valid box: {exc}") from exc
        try:
            box_id = _as_int(entry.get("id", i))
            points = entry.get("points")
            points = [] if points is None else _point_rows(points)
            _check_numbers(itertools.chain.from_iterable(points))
            points = np.asarray(points, dtype=np.float64)
        except (FormatError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: entry {i} has a bad id or points: {exc}") from exc
        if points.size == 0:
            points = points.reshape(0, 4)
        if points.ndim != 2 or points.shape[1] != 4:
            raise FormatError(f"{path}: entry {i} points must be rows of 4 numbers "
                              f"(x, y, z, intensity), got shape {points.shape}")
        if not np.isfinite(points).all():
            raise FormatError(f"{path}: entry {i} points contain non-finite values")
        cls = entry.get("class", "Vehicle")
        if not isinstance(cls, str):
            raise FormatError(f"{path}: entry {i} class must be a string, got {cls!r}")
        out.append({
            "box": box,
            "class": cls,
            "id": box_id,
            "score": entry.get("score"),
            "points": points,
        })
    return out


def write_csv(path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


@contextlib.contextmanager
def _atomic_file(path):
    """A binary temp file to write, renamed onto `path` unless the block raises."""
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _atomic_write_bytes(path, payload: bytes):
    with _atomic_file(path) as fh:
        fh.write(payload)


def _atomic_write_json(path, doc):
    """Stream `json.dumps(doc, indent=1, sort_keys=True) + "\n"` into `path` as UTF-8."""
    with _atomic_file(path) as fh:
        json.dump(doc, codecs.getwriter("utf-8")(fh), indent=1, sort_keys=True)
        fh.write(b"\n")


def _read_json(path, what: str):
    """The parsed JSON of file `path`; FormatError, naming it as a `what`, if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
