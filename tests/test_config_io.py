import base64
import json
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voxpillar.backbone import default_backbone_config, required_weights
from voxpillar.config import RunConfig, config_from_json, load_config
from voxpillar import manifest
from voxpillar.errors import FormatError, InvalidTensor, OutOfRange, ShapeMismatch
from voxpillar.formats import (load_boxes, read_cloud, read_dump, write_cloud, write_csv,
                               write_dump)
from voxpillar.grid import GridSpec
from voxpillar.manifest import (SEEDED_BYTES_CAP, fill_seeded, load_manifest, resolve_weights,
                                save_manifest)
from voxpillar.selftest import (SMALL_GRID, check_seeding_threads, forward_bytes, random_cloud,
                                require_same_tensors)


def test_config_round_trip(tmp_path):
    cfg = RunConfig(seed=42, iou_thresholds={"Vehicle": 0.8, "Pedestrian": 0.55})
    path = tmp_path / "config.json"
    cfg.save(path)
    loaded = load_config(path)
    assert loaded == cfg
    # serialize -> load again is a fixed point
    path2 = tmp_path / "config2.json"
    loaded.save(path2)
    assert load_config(path2) == loaded


def test_config_rejects_unknown_keys(tmp_path):
    doc = RunConfig().to_json()
    doc["typo"] = 1
    with pytest.raises(FormatError):
        config_from_json(doc)
    doc = RunConfig().to_json()
    doc["backbone"]["extra"] = True
    with pytest.raises(FormatError):
        config_from_json(doc)
    doc = RunConfig().to_json()
    doc["grid"]["size"] = [1, 1, 1]
    with pytest.raises(FormatError):
        config_from_json(doc)


def test_config_defaults_follow_variant():
    cfg = config_from_json({"backbone": {"variant": "sparse"}})
    assert cfg.backbone.voxel_channels == (16, 32, 64, 128)
    cfg = config_from_json({})
    assert cfg.backbone.voxel_channels == (16, 32, 64, 64)


def test_config_rejects_non_integral_int_fields():
    for doc in ({"backbone": {"submanifold_layers": 2.7}}, {"seed": 0.5},
                {"backbone": {"voxel_channels": [16, 32, 64, 64.5]}}):
        with pytest.raises(FormatError):
            config_from_json(doc)
    # integral numbers still load as before
    assert config_from_json({"backbone": {"submanifold_layers": 3.0}}).backbone.submanifold_layers == 3


def test_config_validates_thresholds():
    with pytest.raises(FormatError):
        config_from_json({"iou_thresholds": {"Vehicle": 1.5}})


@pytest.mark.parametrize("doc,key,kind", [
    ({"grid": [["range_min", [0, 0, 0]], ["range_max", [6.4, 6.4, 2.4]],
               ["voxel_size", [0.1, 0.1, 0.15]]]}, "grid", "an object"),
    ({"backbone": "ab"}, "backbone", "an object"),
    ({"loss": [1]}, "loss", "an object"),
    ({"paths": [1]}, "paths", "an object"),
    ({"iou_thresholds": [1, 2]}, "iou_thresholds", "an object"),
    ({"backbone": {"voxel_channels": 5}}, "backbone.voxel_channels", "an array"),
    ({"backbone": {"sfl_steps": 5}}, "backbone.sfl_steps", "an array"),
    ({"backbone": {"voxel_channels": {"a": 1, "b": 2, "c": 3, "d": 4}}},
     "backbone.voxel_channels", "an array"),
])
def test_config_sections_must_be_objects_and_tuple_fields_arrays(doc, key, kind):
    with pytest.raises(FormatError) as exc:
        config_from_json(doc)
    assert str(exc.value).startswith(f"{key}: expected {kind}, got ")


def with_tied_x(pts):
    """`pts` with rows of exactly equal x, +0.0 before -0.0 among them, where it has
    at least 8 rows."""
    if len(pts) >= 8:
        pts[2::5, 0] = pts[1, 0]
        pts[[3, 6], 0] = 0.0, -0.0
    return pts


def x_sorted_f4_bytes(pts) -> bytes:
    """The float64 bytes of `pts`' f4 values in the row order `read_cloud` promises:
    the stable argsort of x, so ties (+-0.0 among them) stay in file order."""
    f4 = pts.astype("<f4")
    return f4[np.argsort(f4[:, 0], kind="stable")].astype(np.float64).tobytes()


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(110)
    pts = with_tied_x(rng.normal(size=(37, 4)))
    path = tmp_path / "cloud.vpc"
    write_cloud(path, pts)
    assert read_cloud(path).tobytes() == x_sorted_f4_bytes(pts)


@pytest.mark.parametrize("count", [0, 1, 150])
def test_read_cloud_returns_the_written_f4_values_column_major(tmp_path, count):
    pts = with_tied_x(random_cloud(np.random.default_rng(112), count, SMALL_GRID))
    path = tmp_path / "cloud.vpc"
    write_cloud(path, pts)
    back = read_cloud(path)
    assert back.dtype == np.float64 and back.shape == (count, 4) and back.flags.f_contiguous
    assert back.tobytes() == x_sorted_f4_bytes(pts)


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_forward_gives_the_same_bytes_on_the_read_cloud_and_a_row_major_copy(tmp_path, variant):
    cfg = default_backbone_config(variant)
    tensors = resolve_weights(required_weights(SMALL_GRID, cfg), None, seed=113)
    path = tmp_path / "cloud.vpc"
    write_cloud(path, random_cloud(np.random.default_rng(113), 150, SMALL_GRID))
    cloud = read_cloud(path)
    row_major = np.ascontiguousarray(cloud)
    assert not row_major.flags.f_contiguous
    assert forward_bytes(cloud, SMALL_GRID, cfg, tensors) == \
        forward_bytes(row_major, SMALL_GRID, cfg, tensors)


def test_cloud_bad_magic(tmp_path):
    path = tmp_path / "bad.vpc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_cloud(path)


def test_cloud_truncated(tmp_path):
    rng = np.random.default_rng(111)
    path = tmp_path / "trunc.vpc"
    write_cloud(path, rng.normal(size=(10, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        read_cloud(path)
    path.write_bytes(data + b"\x00" * 4)  # trailing garbage is also rejected
    with pytest.raises(FormatError):
        read_cloud(path)


def test_dump_round_trip(tmp_path):
    rng = np.random.default_rng(112)
    coords = np.array([[0, 1, 2], [3, 4, 5]])
    feats = rng.normal(size=(2, 6)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.vpt"
    write_dump(path, [("a", coords, feats, 2, (8, 8, 8)),
                      ("b", coords[:, :2], feats, 4, (4, 4))])
    records = read_dump(path)
    assert [r["header"]["name"] for r in records] == ["a", "b"]
    assert records[0]["header"] == {"name": "a", "stride": 2, "extents": [8, 8, 8],
                                    "channels": 6, "count": 2}
    np.testing.assert_array_equal(records[0]["coords"], coords)
    np.testing.assert_allclose(records[0]["features"], feats, rtol=0, atol=0)


def test_dump_truncation_detected(tmp_path):
    path = tmp_path / "t.vpt"
    write_dump(path, [("a", np.array([[1, 2]]), np.ones((1, 3)), 1, (4, 4))])
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(FormatError):
        read_dump(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39],
                         ids=["nan", "inf", "-inf", "past-f32"])
def test_dump_rejects_features_not_finite_as_f32(tmp_path, value):
    feats = np.ones((2, 3))
    feats[1, 2] = value
    path = tmp_path / "t.vpt"
    with pytest.raises(InvalidTensor, match="'b'"):
        write_dump(path, [("a", np.array([[1, 2], [3, 4]]), np.ones((2, 3)), 1, (4, 4)),
                          ("b", np.array([[1, 2], [3, 4]]), feats, 1, (4, 4))])
    assert not path.exists()


def _one_record_header(**changes):
    header = {"name": "a", "stride": 1, "extents": [4, 4], "channels": 3, "count": 1}
    header.update(changes)
    return {k: v for k, v in header.items() if v is not None}


@pytest.mark.parametrize("header", [
    _one_record_header(count=None),
    [1, 2],
    5,
    _one_record_header(count="x"),
    _one_record_header(count=-1),
    _one_record_header(count=1.0),
    _one_record_header(count=True),
    _one_record_header(channels=None),
    _one_record_header(channels="3"),
    _one_record_header(extents=None),
    _one_record_header(extents=3),
    _one_record_header(extents=[4, "4"]),
    _one_record_header(extents=[4, -4]),
], ids=["no-count", "list", "number", "count-str", "count-negative", "count-float",
        "count-bool", "no-channels", "channels-str", "no-extents", "extents-int",
        "extents-str", "extents-negative"])
def test_dump_bad_header_raises_format_error(tmp_path, header):
    path = tmp_path / "t.vpt"
    body = np.zeros(2, dtype="<u4").tobytes() + np.zeros(3, dtype="<f4").tobytes()
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(FormatError, match="record"):
        read_dump(path)


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """`blob` with a few bytes flipped (often in the header), then maybe truncated."""
    data = bytearray(blob)
    where = st.one_of(st.integers(0, min(len(data), 96) - 1), st.integers(0, len(data) - 1))
    for _ in range(draw(st.integers(0, 4))):
        data[draw(where)] ^= draw(st.integers(1, 255))
    return bytes(data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) else data)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory to write into, and the bytes of a valid cloud and dump."""
    tmp = tmp_path_factory.mktemp("corrupt")
    rng = np.random.default_rng(113)
    write_cloud(tmp / "cloud.vpc", rng.normal(size=(6, 4)))
    coords = np.array([[0, 1, 2], [3, 2, 1]])
    write_dump(tmp / "t.vpt", [("a", coords, rng.normal(size=(2, 3)), 2, (4, 4, 4)),
                               ("b", coords[:, :2], rng.normal(size=(2, 5)), 4, (4, 4))])
    return tmp, {"cloud": (read_cloud, (tmp / "cloud.vpc").read_bytes()),
                 "dump": (read_dump, (tmp / "t.vpt").read_bytes())}


@settings(max_examples=200)
@given(st.sampled_from(["cloud", "dump"]), st.data())
def test_corrupted_files_raise_only_format_error(valid_files, kind, data):
    tmp, files = valid_files
    reader, blob = files[kind]
    path = tmp / "corrupted.bin"
    path.write_bytes(data.draw(corrupted(blob)))
    try:
        reader(path)
    except FormatError:
        pass


def test_save_onto_a_directory_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        RunConfig(seed=1, grid=GridSpec((0.0, 0.0, 0.0), (1.6, 1.6, 1.2),
                                        (0.1, 0.1, 0.15))).save(target)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_boxes_json(tmp_path):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps([
        {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.1},
        {"box": {"center": [1, 1, 1], "dims": [2, 2, 2], "heading": 0.0},
         "class": "Pedestrian", "id": 7, "points": [[1, 1, 1, 0.5]]},
    ]))
    entries = load_boxes(path)
    assert entries[0]["class"] == "Vehicle" and entries[0]["id"] == 0
    assert entries[1]["class"] == "Pedestrian" and entries[1]["id"] == 7
    assert entries[1]["points"].shape == (1, 4)
    path.write_text(json.dumps([{"center": [0, 0, 0]}]))
    with pytest.raises(FormatError):
        load_boxes(path)


@pytest.mark.parametrize("points", [{"a": 1}, 5, "abc", [{"x": 1}], [5]],
                         ids=["object", "number", "string", "object-rows", "number-rows"])
def test_load_boxes_refuses_points_that_are_not_an_array_of_rows(tmp_path, points):
    path = tmp_path / "boxes.json"
    box = {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}
    path.write_text(json.dumps([{"box": box}, {"box": box, "points": points}]))
    with pytest.raises(FormatError, match=r"entry 1 .*points must be an array of rows, got "):
        load_boxes(path)


def test_csv_stable(tmp_path):
    path1 = tmp_path / "a.csv"
    path2 = tmp_path / "b.csv"
    rows = [(1, 0.5, "x"), (2, 0.25, "y")]
    write_csv(path1, ["i", "v", "s"], rows)
    write_csv(path2, ["i", "v", "s"], rows)
    assert path1.read_bytes() == path2.read_bytes()
    assert path1.read_text().splitlines()[0] == "i,v,s"


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(113)
    tensors = {"small.weight": rng.normal(size=(2, 3)).astype(np.float32).astype(np.float64),
               "big.kernel": rng.normal(size=(27, 4, 4)).astype(np.float32).astype(np.float64)}
    path = tmp_path / "weights.json"
    save_manifest(path, tensors)
    doc = json.loads(path.read_text())
    assert isinstance(doc["tensors"]["small.weight"]["values"], list)  # inline
    assert isinstance(doc["tensors"]["big.kernel"]["values"], str)  # base64
    back = load_manifest(path)
    for name in tensors:
        np.testing.assert_allclose(back[name], tensors[name], rtol=0, atol=1e-7)


# -0.0, the smallest and largest f32 subnormals and the largest f32, on both signs
F32_EDGES = np.array([-0.0, 2.0**-149, 2.0**-126 - 2.0**-149, float(np.finfo(np.float32).max)])
F32_EDGES = np.concatenate([F32_EDGES, -F32_EDGES])


@settings(max_examples=60)
@given(st.lists(hnp.arrays(np.float32,
                           st.sampled_from([(), (0,), (3, 0), (1,), (8, 8), (65,), (5, 13),
                                            (2, 3, 11)]),
                           elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=3))
def test_manifest_round_trip_is_bitwise(tmp_path_factory, arrays):
    # 0-d and zero-size tensors, inline ones (at most 64 values) and base64 ones
    tensors = {f"t{i}": a.astype(np.float64) for i, a in enumerate(arrays)}
    tensors["edges.inline"] = F32_EDGES
    tensors["edges.base64"] = np.tile(F32_EDGES, 9)
    path = tmp_path_factory.mktemp("manifest") / "weights.json"
    save_manifest(path, tensors)
    back = load_manifest(path)
    assert sorted(back) == sorted(tensors)
    for name, want in tensors.items():
        # base64 tensors stay float32; inline ones (at most 64 values) become float64
        dtype = np.float64 if want.size <= manifest._INLINE_LIMIT else np.float32
        assert back[name].dtype == dtype and back[name].shape == want.shape, name
        assert back[name].tobytes() == want.astype(dtype).tobytes(), name


def _whole_text_manifest(tensors) -> bytes:
    """The manifest encoding built in memory: every tensor widened to float64, base64 ones
    narrowed back to f32, and the whole JSON text encoded at once."""
    doc = {"tensors": {}}
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        values = (arr.tolist() if arr.size <= manifest._INLINE_LIMIT
                  else base64.b64encode(arr.astype("<f4").tobytes()).decode("ascii"))
        doc["tensors"][name] = {"shape": list(arr.shape), "values": values}
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_saved_manifests_equal_the_whole_text_encoding(tmp_path, variant):
    seeded = resolve_weights(required_weights(SMALL_GRID, default_backbone_config(variant)),
                             None, seed=3)
    path = tmp_path / "weights.json"
    save_manifest(path, seeded)
    assert path.read_bytes() == _whole_text_manifest(seeded)
    # loaded back: float32 base64 tensors and float64 inline arrays
    back = load_manifest(path)
    again = tmp_path / "again.json"
    save_manifest(again, back)
    assert again.read_bytes() == _whole_text_manifest(back) == path.read_bytes()


def test_saving_the_sparse_model_peaks_below_its_file_size_and_a_quarter(tmp_path):
    # the nearfield benchmark's 25.6 m grid; a float64 copy of the model alone is 2x its bytes
    grid = GridSpec((0.0, 0.0, 0.0), (25.6, 25.6, 2.4), (0.1, 0.1, 0.15))
    seeded = resolve_weights(required_weights(grid, default_backbone_config("sparse")), None,
                             seed=0)
    path = tmp_path / "weights.json"
    tracemalloc.start()
    try:
        save_manifest(path, seeded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 1.25 * size, f"{peak} bytes peak for a {size}-byte file"


def test_manifests_keep_base64_tensors_float32_and_inline_arrays_float64(tmp_path):
    path = tmp_path / "weights.json"
    doc = {"tensors": {
        "inline": {"shape": [2], "values": [0.1, 3]},
        "base64": {"shape": [2], "values": base64.b64encode(
            np.array([0.1, -0.0], dtype="<f4").tobytes()).decode("ascii")}}}
    path.write_text(json.dumps(doc))
    back = load_manifest(path)
    assert back["inline"].dtype == np.float64 and back["inline"].tolist() == [0.1, 3.0]
    assert back["base64"].dtype == np.float32
    assert back["base64"].tobytes() == np.array([0.1, -0.0], dtype="<f4").tobytes()
    # resolve_weights keeps a float32 tensor and widens any other to float64
    required = {"inline": (2,), "base64": (2,), "ints": (1,)}
    resolved = resolve_weights(required, {**back, "ints": np.array([3])}, seed=0)
    assert resolved["base64"] is back["base64"]
    assert [resolved[n].dtype for n in required] == [np.float64, np.float32, np.float64]


def test_manifest_validation(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"tensors": {"a": {"shape": [2, 2], "values": [1, 2, 3]}}}))
    with pytest.raises(FormatError):
        load_manifest(path)
    path.write_text("{}")
    with pytest.raises(FormatError):
        load_manifest(path)


def test_resolve_weights_seeded_and_manifest():
    grid = GridSpec((0, 0, 0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15))
    cfg = default_backbone_config("dense")
    required = required_weights(grid, cfg)
    t1 = resolve_weights(required, None, seed=9)
    t2 = resolve_weights(required, None, seed=9)
    for name in required:
        assert t1[name].tobytes() == t2[name].tobytes()
    t3 = resolve_weights(required, None, seed=10)
    assert any(t1[n].tobytes() != t3[n].tobytes() for n in required)
    # manifests must be complete and well shaped
    partial = {name: t1[name] for name in list(required)[:-1]}
    with pytest.raises(ShapeMismatch):
        resolve_weights(required, partial, seed=0)
    bad = dict(t1)
    first = next(iter(required))
    bad[first] = np.zeros((1,))
    with pytest.raises(ShapeMismatch):
        resolve_weights(required, bad, seed=0)


def test_seeded_model_is_capped_before_any_tensor(monkeypatch):
    generated = []
    monkeypatch.setattr(manifest, "fill_seeded", lambda name, *_: generated.append(name))
    at_cap = {"a.kernel": (SEEDED_BYTES_CAP // 16, 2)}
    assert sorted(resolve_weights(at_cap, None, seed=0)) == ["a.kernel"]
    with pytest.raises(OutOfRange, match="GiB"):
        resolve_weights({**at_cap, "b.bias": (1,)}, None, seed=0)
    assert generated == ["a.kernel"]


def test_seeded_tensor_name_keyed():
    a, b, again = (np.empty((4, 4), dtype=np.float32) for _ in range(3))
    fill_seeded("layer.a", a, seed=1)
    fill_seeded("layer.b", b, seed=1)
    assert a.tobytes() != b.tobytes()
    fill_seeded("layer.a", again, seed=1)
    assert a.tobytes() == again.tobytes()


CHUNK = manifest._SEED_CHUNK


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("shape", [(5,), (3, 4), (27, 6, 2), (0, 3), (1,), (CHUNK - 1,),
                                   (CHUNK,), (CHUNK + 1,), (3 * CHUNK + 5,), (3, CHUNK // 2 + 1)])
def test_the_in_place_fill_equals_the_scaled_normal_draw(seed, shape):
    name = "layer.kernel"
    scale = 1.0 / np.sqrt(max(int(np.prod(shape[:-1])) if len(shape) > 1 else shape[0], 1))
    rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))])
    want = rng.normal(0.0, scale, size=shape).astype("<f4")
    got = np.empty(shape, dtype=np.float32)
    fill_seeded(name, got, seed)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_seeded_tensors_are_float32(variant):
    tensors = resolve_weights(required_weights(SMALL_GRID, default_backbone_config(variant)),
                              None, seed=5)
    assert {t.dtype for t in tensors.values()} == {np.dtype(np.float32)}


def test_seeding_the_sparse_model_peaks_below_4_bytes_a_weight():
    # the nearfield benchmark's 25.6 m grid; float64 storage would need 8 bytes a weight
    grid = GridSpec((0.0, 0.0, 0.0), (25.6, 25.6, 2.4), (0.1, 0.1, 0.15))
    required = required_weights(grid, default_backbone_config("sparse"))
    count = sum(int(np.prod(shape)) for shape in required.values())
    tracemalloc.start()
    try:
        tensors = resolve_weights(required, None, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tensors) == len(required)
    assert peak < 4 * count + (8 << 20), f"{peak} bytes for {count} weights"


def _fills_recorded(monkeypatch):
    """Patch the fill to record the thread that runs each call."""
    threads = []
    real = manifest.fill_seeded
    monkeypatch.setattr(manifest, "fill_seeded", lambda name, values, seed: threads.append(
        threading.get_ident()) or real(name, values, seed))
    return threads


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_one_and_four_seeding_threads_give_the_same_tensors(monkeypatch, variant):
    required = required_weights(SMALL_GRID, default_backbone_config(variant))
    seed = 2**32 + 5  # wider than the stream's 32-bit seed word
    check_seeding_threads(required, seed)
    threads = _fills_recorded(monkeypatch)
    runs = {}
    for cpus in (1, 4):
        monkeypatch.setattr(manifest, "_cpu_count", lambda: cpus)
        threads.clear()
        runs[cpus] = resolve_weights(required, None, seed=seed)
        assert len(threads) == len(required)
        # one CPU fills on the calling thread; four start a pool
        assert (set(threads) == {threading.get_ident()}) == (cpus == 1)
    require_same_tensors(runs[1], runs[4], "1 and 4 CPUs")
    assert list(runs[1]) == list(required)


def test_a_failing_fill_propagates_and_leaves_no_thread(monkeypatch):
    required = required_weights(SMALL_GRID, default_backbone_config("dense"))
    failing = sorted(required)[len(required) // 2]
    error = RuntimeError("fill failed")
    real = manifest.fill_seeded

    def fill(name, values, seed):
        if name == failing:
            raise error
        real(name, values, seed)

    monkeypatch.setattr(manifest, "fill_seeded", fill)
    baseline = threading.active_count()
    for cpus in (1, 4):
        monkeypatch.setattr(manifest, "_cpu_count", lambda: cpus)
        with pytest.raises(RuntimeError) as exc:
            resolve_weights(required, None, seed=3)
        assert exc.value is error
        assert threading.active_count() == baseline


def test_an_empty_model_seeds_nothing(monkeypatch):
    for cpus in (1, 4):
        monkeypatch.setattr(manifest, "_cpu_count", lambda: cpus)
        assert resolve_weights({}, None, seed=0) == {}


def test_the_cpu_count_falls_back_without_affinity(monkeypatch):
    assert manifest._cpu_count() >= 1
    monkeypatch.delattr(manifest.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(manifest.os, "cpu_count", lambda: None)
    assert manifest._cpu_count() == 1
    monkeypatch.setattr(manifest.os, "cpu_count", lambda: 3)
    assert manifest._cpu_count() == 3
