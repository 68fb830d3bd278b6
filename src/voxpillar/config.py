"""Run configuration: grid, backbone, loss knobs, thresholds, seed, paths."""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .backbone import BackboneConfig, default_backbone_config
from .errors import FormatError
from .formats import _as_int, _atomic_write_json, _number, _read_json
from .grid import GridSpec
from .losses import LossWeights

DEFAULT_IOU_THRESHOLDS = {"Vehicle": 0.8, "Pedestrian": 0.55, "Cyclist": 0.55}

# Seeded weight streams are keyed by a 32-bit seed word (`manifest.fill_seeded`),
# so a wider or negative seed would silently alias another model.
SEED_LIMIT = 2**32


@dataclass
class RunConfig:
    seed: int = 0
    grid: GridSpec = field(default_factory=lambda: GridSpec(
        range_min=(0.0, 0.0, 0.0), range_max=(6.4, 6.4, 2.4), voxel_size=(0.1, 0.1, 0.15)))
    backbone: BackboneConfig = field(default_factory=default_backbone_config)
    loss: LossWeights = field(default_factory=LossWeights)
    iou_thresholds: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_IOU_THRESHOLDS))
    weights_path: str | None = None

    def __post_init__(self):
        if not 0 <= self.seed < SEED_LIMIT:
            raise FormatError(f"seed must lie in [0, 2**32), got {self.seed}")
        for name, thr in self.iou_thresholds.items():
            if not 0.0 < thr < 1.0:
                raise FormatError(f"iou threshold for {name} must lie in (0, 1), got {thr}")

    def to_json(self) -> dict:
        return {"seed": self.seed, "grid": _section_doc(self.grid),
                "backbone": _section_doc(self.backbone), "loss": _section_doc(self.loss),
                "iou_thresholds": dict(self.iou_thresholds),
                "paths": {"weights": self.weights_path}}

    def save(self, path):
        _atomic_write_json(path, self.to_json())


def _section_doc(obj) -> dict:
    """JSON form of a config dataclass: its init fields, tuples as lists."""
    doc = {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}
    return {k: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
            for k, v in doc.items()}


def _take(obj: dict, allowed: set[str], context: str) -> dict:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise FormatError(f"unknown {context} keys: {', '.join(unknown)}")
    return obj


def _coerce(kind: str, value):
    """Convert a JSON value to the field type named by the annotation `kind`."""
    if kind == "int":
        return _as_int(value)
    if kind == "float":
        return float(_number(value))
    if kind == "tuple[int, ...]":
        return tuple(_as_int(v) for v in value)
    if kind == "tuple[bool, ...]" and not all(isinstance(v, bool) for v in value):
        raise FormatError(f"expected a list of true and false, got {value!r}")
    if kind.startswith("tuple[float"):
        return tuple(float(_number(v)) for v in value)
    if kind.startswith("tuple"):
        return tuple(value)
    if kind.startswith("dict"):
        return {str(k): float(_number(v)) for k, v in value.items()}
    return value


def _section(cls, doc, defaults, context: str):
    """Build dataclass `cls` from `doc`; omitted fields come from `defaults`."""
    init = [f for f in fields(cls) if f.init]
    doc = _take(dict(doc), {f.name for f in init}, context)
    return cls(**{f.name: _coerce(f.type, doc[f.name]) if f.name in doc
                  else getattr(defaults, f.name) for f in init})


def config_from_json(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise FormatError("config document must be a JSON object")
    _take(doc, {"seed", "grid", "backbone", "loss", "iou_thresholds", "paths"}, "config")
    try:
        bb_doc = dict(doc.get("backbone", {}))
        paths_doc = _take(dict(doc.get("paths", {})), {"weights"}, "paths")
        if not isinstance(paths_doc.get("weights"), (str, type(None))):
            raise FormatError(f"paths.weights must be a string or null, got {paths_doc['weights']!r}")
        return RunConfig(
            seed=_as_int(doc.get("seed", 0)),
            grid=_section(GridSpec, doc.get("grid", {}), RunConfig().grid, "grid"),
            backbone=_section(BackboneConfig, bb_doc,
                              default_backbone_config(bb_doc.get("variant", "dense")), "backbone"),
            loss=_section(LossWeights, doc.get("loss", {}), LossWeights(), "loss"),
            iou_thresholds=_coerce("dict[str, float]",
                                   doc.get("iou_thresholds", DEFAULT_IOU_THRESHOLDS)),
            weights_path=paths_doc.get("weights"))
    except FormatError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
        raise FormatError(f"invalid configuration: {exc}") from exc


def load_config(path) -> RunConfig:
    return config_from_json(_read_json(path, "config"))
