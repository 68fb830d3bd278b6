import json

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
from voxpillar.manifest import (SEEDED_BYTES_CAP, load_manifest, resolve_weights, save_manifest,
                                seeded_tensor)


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


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(110)
    pts = rng.normal(size=(37, 4))
    path = tmp_path / "cloud.vpc"
    write_cloud(path, pts)
    back = read_cloud(path)
    np.testing.assert_allclose(back, pts.astype(np.float32), rtol=0, atol=0)


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
        assert back[name].dtype == np.float64 and back[name].shape == want.shape, name
        assert back[name].tobytes() == want.tobytes(), name


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
    monkeypatch.setattr(manifest, "seeded_tensor", lambda name, *_: generated.append(name))
    at_cap = {"a.kernel": (SEEDED_BYTES_CAP // 16, 2)}
    assert sorted(resolve_weights(at_cap, None, seed=0)) == ["a.kernel"]
    with pytest.raises(OutOfRange, match="GiB"):
        resolve_weights({**at_cap, "b.bias": (1,)}, None, seed=0)
    assert generated == ["a.kernel"]


def test_seeded_tensor_name_keyed():
    a = seeded_tensor("layer.a", (4, 4), seed=1)
    b = seeded_tensor("layer.b", (4, 4), seed=1)
    assert a.tobytes() != b.tobytes()
    again = seeded_tensor("layer.a", (4, 4), seed=1)
    assert a.tobytes() == again.tobytes()
