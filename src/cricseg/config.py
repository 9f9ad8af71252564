"""Pipeline configuration: a flat key-value file plus flag overrides.

The file format is one ``section.key = value`` pair per line, with ``#``
comments. Flags always win over file values. A key the pipeline does not
read is a configuration error, so a typo cannot pass unnoticed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


def _take(values: dict[str, str], key: str, cast, default):
    """Remove ``key`` from ``values`` and return it cast, or ``default``.

    A float must be finite: ``float()`` also reads ``nan`` and ``inf``.
    """
    if key not in values:
        return default
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


def _section(cls, values: dict[str, str], fields: dict[str, tuple], **fixed):
    """``cls`` built from config values; ``fields`` maps each of its field
    names to (config key, cast, default). A range error from ``cls`` names
    the config keys the user writes, not the field names."""
    kwargs = {name: _take(values, key, cast, default)
              for name, (key, cast, default) in fields.items()}
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        message = str(exc)
        for name, (key, _, _) in fields.items():
            message = re.sub(rf"\b{name}\b", key, message)
        raise ConfigError(message) from exc


def build_pipeline_config(values: dict[str, str]) -> PipelineConfig:
    """Assemble the typed config from flat key-value pairs."""
    values = dict(values)
    gate = _section(GateConfig, values, {
        "classifier_threshold": ("gate.thresholds.classifier", float, 0.5),
        "umpire_conf_min": ("gate.thresholds.umpire", float, 0.25),
        "pitch_conf_min": ("gate.thresholds.pitch", float, 0.25),
        "dual_mode": ("gate.dual_mode", str, "union"),
        "debounce_k": ("gate.debounce_k", int, 3),
    })
    boundary = _section(BoundaryConfig, values, {
        "foreground_threshold": ("boundary.foreground_threshold", float, 0.6),
        "pixel_diff_threshold": ("boundary.pixel_diff_threshold", float, 25.0),
        "learning_rate": ("boundary.learning_rate", float, 0.05),
        "init_frames": ("boundary.init_frames", int, 30),
        "min_clip_frames": ("boundary.min_clip_frames", int, 25),
    })
    band = _section(BandSpec, values, {"band_fraction": ("replay.band_fraction", float, 0.15)})
    replay = _section(ReplayConfig, values, {
        "mean_abs_diff_threshold": ("replay.threshold", float, 8.0),
    }, band=band)
    tracker = _section(TrackerConfig, values, {
        "max_jump_px": ("tracker.max_jump_px", float, 120.0),
        "max_gap_frames": ("tracker.max_gap_frames", int, 3),
    })
    pitch = _section(PitchSpec, values, {
        "full_max_m": ("pitch.full_max_m", float, 6.0),
        "good_max_m": ("pitch.good_max_m", float, 8.0),
        "tilt_deg": ("pitch.tilt_deg", float, 20.0),
    })
    crop = _section(CropSpec, values, {
        side: (f"crop.{side}", float, 0.0) for side in ("top", "bottom", "left", "right")
    })
    cfg = PipelineConfig(
        source=_take(values, "source.path", str, None),
        scenario=_take(values, "source.scenario", str, None),
        backend=_take(values, "backend.kind", str, "synthetic"),
        fps=_take(values, "source.fps", float, 50.0),
        width=_take(values, "source.width", int, None),
        height=_take(values, "source.height", int, None),
        strategy=_take(values, "gate.strategy", str, "dual"),
        gate=gate,
        boundary=boundary,
        replay=replay,
        tracker=tracker,
        pitch=pitch,
        crop=crop,
    )
    if values:
        raise ConfigError(f"unknown config key: {', '.join(sorted(values))}")
    return cfg
