"""Pipeline configuration: a flat key-value file plus flag overrides.

The file format is one ``section.key = value`` pair per line, with ``#``
comments. Flags always win over file values. A key the pipeline does not
read is a configuration error, so a typo cannot pass unnoticed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from math import inf, isfinite
from pathlib import Path

from cricseg.frames import BandSpec, CropSpec
from cricseg.gate import GateConfig, STRATEGIES
from cricseg.geometry import PitchSpec
from cricseg.replay import ReplayConfig
from cricseg.segmenter import BoundaryConfig
from cricseg.tracker import TrackerConfig


class ConfigError(Exception):
    pass


def load_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _take(values: dict[str, str], key: str, cast):
    """Remove ``key`` from ``values`` and return it cast.

    A float must be finite: ``float()`` also reads ``nan`` and ``inf``.
    """
    raw = values.pop(key)
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc
    if cast is float and not isfinite(value):
        raise ConfigError(f"config key {key}: {raw!r} is not a finite number")
    return value


@dataclass
class PipelineConfig:
    source: str | None = None
    scenario: str | None = None
    backend: str = "synthetic"  # synthetic | file:<path>
    fps: float = 50.0
    width: int | None = None
    height: int | None = None
    strategy: str = "dual"
    gate: GateConfig = field(default_factory=GateConfig)
    boundary: BoundaryConfig = field(default_factory=BoundaryConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    pitch: PitchSpec = field(default_factory=PitchSpec)
    crop: CropSpec = field(default_factory=CropSpec)

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"gate.strategy must be one of {STRATEGIES}")
        if not (self.backend == "synthetic" or self.backend.startswith("file:")):
            raise ConfigError("backend must be 'synthetic' or 'file:<path>'")
        if self.backend.startswith("file:"):
            path = self.backend[len("file:") :]
            if not Path(path).exists():
                raise ConfigError(f"annotation file does not exist: {path}")
        if self.backend == "synthetic" and self.scenario is None:
            raise ConfigError("the synthetic backend needs --scenario")
        if not 0.0 < self.fps < inf:
            raise ConfigError("source.fps must be positive and finite")
        for name, value in (("width", self.width), ("height", self.height)):
            if value is not None and value <= 0:
                raise ConfigError(f"source.{name} must be positive")


# What a field's annotation (a string, as annotations are not evaluated)
# casts its config value with.
_CASTS = {"float": float, "int": int, "str": str, "int | None": int, "str | None": str}


def _section(cls, values: dict[str, str], keys: dict[str, str], **fixed):
    """``cls`` built from config values; ``keys`` maps each of its field
    names to its config key. A value given is cast to its field's type; a
    field whose key is not given keeps its default. A range error from
    ``cls`` names the config keys the user writes, not the field names."""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {name: _take(values, key, _CASTS[types[name]])
              for name, key in keys.items() if key in values}
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        message = str(exc)
        for name, key in keys.items():
            message = re.sub(rf"\b{name}\b", key, message)
        raise ConfigError(message) from exc


def build_pipeline_config(values: dict[str, str]) -> PipelineConfig:
    """Assemble the typed config from flat key-value pairs."""
    values = dict(values)
    gate = _section(GateConfig, values, {
        "classifier_threshold": "gate.thresholds.classifier",
        "umpire_conf_min": "gate.thresholds.umpire",
        "pitch_conf_min": "gate.thresholds.pitch",
        "dual_mode": "gate.dual_mode",
        "debounce_k": "gate.debounce_k",
    })
    boundary = _section(BoundaryConfig, values, {
        name: f"boundary.{name}"
        for name in ("foreground_threshold", "pixel_diff_threshold", "learning_rate",
                     "init_frames", "min_clip_frames")
    })
    band = _section(BandSpec, values, {"band_fraction": "replay.band_fraction"})
    replay = _section(ReplayConfig, values, {"mean_abs_diff_threshold": "replay.threshold"},
                      band=band)
    tracker = _section(TrackerConfig, values, {
        name: f"tracker.{name}" for name in ("max_jump_px", "max_gap_frames")
    })
    pitch = _section(PitchSpec, values, {
        name: f"pitch.{name}" for name in ("full_max_m", "good_max_m", "tilt_deg")
    })
    crop = _section(CropSpec, values, {
        side: f"crop.{side}" for side in ("top", "bottom", "left", "right")
    })
    cfg = _section(PipelineConfig, values, {
        "source": "source.path",
        "scenario": "source.scenario",
        "backend": "backend.kind",
        "fps": "source.fps",
        "width": "source.width",
        "height": "source.height",
        "strategy": "gate.strategy",
    }, gate=gate, boundary=boundary, replay=replay, tracker=tracker, pitch=pitch, crop=crop)
    if values:
        raise ConfigError(f"unknown config key: {', '.join(sorted(values))}")
    return cfg
