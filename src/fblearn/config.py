"""Experiment configuration: a strict, nested key-value file.

Configs are YAML mappings.  Unknown keys anywhere are errors, every
offending field is reported at once, and a seed is mandatory so no run ever
depends on ambient entropy.  ``lambda`` is accepted as the sweep key for the
confidence levels (stored as ``lam`` since ``lambda`` is reserved in
Python).
"""

from __future__ import annotations

import dataclasses
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigError
from .learning import BASELINES

SCENARIOS = ("double_pendulum", "inspan_synthetic")


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader that also reads ``1e-3`` (an exponent, no dot) as a float."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


@dataclass(frozen=True)
class PendulumSection:
    """True plant parameters and the scale factor for the mismatched nominal."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    gravity: float = 9.81
    nominal_scale: float = 1.3


@dataclass(frozen=True)
class InspanSection:
    """Shape of the synthetic plant with a representable true controller."""

    gamma: tuple = (2,)
    theta_star_scale: float = 0.15
    theta_star_seed: int = 7
    phi0_scale: float = 0.5


@dataclass(frozen=True)
class BasisSection:
    """Approximator layout: an RBF grid or a polynomial feature set.

    ``kind`` selects the family; the grid fields apply to ``rbf_grid`` and
    ``degree`` to ``polynomial``.  The output scales set how strongly a unit
    parameter moves the controller (the per-block adaptation gains).
    """

    kind: str = "rbf_grid"
    box: tuple = ()
    counts: tuple = ()
    width_rule: float = 1.0
    degree: int = 1
    beta_scale: float = 1.0
    alpha_scale: float = 1.0


@dataclass(frozen=True)
class SweepSection:
    """Sweep lists for the Monte Carlo subcommand (empty list = no sweep)."""

    dt: tuple = ()
    sigma2: tuple = ()
    lam: tuple = (0.3, 0.1, 0.03)


@dataclass(frozen=True)
class DiagSection:
    """Knobs for the excitation / stability diagnostics."""

    window_s: float = 10.0
    grid_points: int = 9
    fit_step: float = 0.02
    stride: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    dt: float = 0.05
    sigma2: float = 0.1
    noise_clip: float = 5.0
    pole: float = -1.5
    horizon_s: float = 60.0
    baseline: str = "mean_of_past"
    substeps: int = 10
    trials: int = 200
    x0: tuple | None = None
    reference: tuple | None = None
    pendulum: PendulumSection = field(default_factory=PendulumSection)
    inspan: InspanSection = field(default_factory=InspanSection)
    basis: BasisSection | None = None
    sweep: SweepSection = field(default_factory=SweepSection)
    diag: DiagSection = field(default_factory=DiagSection)

    def to_dict(self) -> dict:
        """Plain-dict snapshot suitable for YAML round-tripping."""
        def plain(value):
            if dataclasses.is_dataclass(value):
                return {("lambda" if f.name == "lam" else f.name): plain(getattr(value, f.name))
                        for f in fields(value)}
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            return value
        return plain(self)


_SECTION_TYPES = {
    "pendulum": PendulumSection,
    "inspan": InspanSection,
    "basis": BasisSection,
    "sweep": SweepSection,
    "diag": DiagSection,
}

_TUPLE_KEYS = {"gamma", "box", "counts", "dt", "sigma2", "lam", "x0", "reference"}


def _tuplify(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _build_section(cls, data: dict, prefix: str, problems: list):
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = "lam" if (cls is SweepSection and key == "lambda") else key
        if name not in known:
            problems.append(f"{prefix}{key}: unknown key")
            continue
        kwargs[name] = _tuplify(value) if name in _TUPLE_KEYS else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"{prefix[:-1] or 'config'}: {exc}")
        return None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from a parsed mapping.

    Raises ``ConfigError`` listing every offending field.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["config file must contain a mapping at the top level"])
    top_fields = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in data.items():
        if key not in top_fields:
            problems.append(f"{key}: unknown key")
            continue
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                problems.append(f"{key}: must be a mapping")
                continue
            section = _build_section(_SECTION_TYPES[key], value, f"{key}.", problems)
            if section is not None:
                kwargs[key] = section
        else:
            kwargs[key] = _tuplify(value) if key in _TUPLE_KEYS else value

    if "scenario" not in kwargs:
        problems.append("scenario: required")
    elif kwargs["scenario"] not in SCENARIOS:
        problems.append(f"scenario: must be one of {SCENARIOS}, got {kwargs['scenario']!r}")
    if "seed" not in kwargs:
        problems.append("seed: required (runs never draw ambient entropy)")
    elif not _integer(kwargs["seed"], 0) or kwargs["seed"] >= 2 ** 128:
        problems.append(f"seed: must be an integer in [0, 2**128), got {kwargs['seed']!r}")
    if problems:
        raise ConfigError(problems)

    cfg = ExperimentConfig(**kwargs)
    _validate(cfg, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def _number(value) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _validate(cfg: ExperimentConfig, problems: list) -> None:
    def positive(name, value):
        if not _number(value) or value <= 0:
            problems.append(f"{name}: must be a positive number, got {value!r}")

    def integer(name, value, minimum):
        if not _integer(value, minimum):
            problems.append(f"{name}: must be an integer >= {minimum}, got {value!r}")

    def entries(name, value, valid, what) -> bool:
        ok = isinstance(value, tuple) and all(map(valid, value))
        if not ok:
            problems.append(f"{name}: must be a list of {what}, got {value!r}")
        return ok

    positive("dt", cfg.dt)
    positive("sigma2", cfg.sigma2)
    positive("noise_clip", cfg.noise_clip)
    positive("horizon_s", cfg.horizon_s)
    if not _number(cfg.pole) or cfg.pole >= 0:
        problems.append(f"pole: must be a negative number, got {cfg.pole!r}")
    if cfg.baseline not in BASELINES:
        problems.append(f"baseline: must be one of {BASELINES}, got {cfg.baseline!r}")
    integer("substeps", cfg.substeps, 1)
    integer("trials", cfg.trials, 1)
    if cfg.x0 is not None:
        entries("x0", cfg.x0, _number, "numbers")
    if cfg.reference is not None and not (isinstance(cfg.reference, tuple) and all(
            isinstance(channel, tuple) and all(
                isinstance(term, tuple) and len(term) == 3 and all(map(_number, term))
                for term in channel) for channel in cfg.reference)):
        problems.append("reference: must list each channel's (amplitude, frequency, phase) "
                        f"triples of numbers, got {cfg.reference!r}")
    for name in ("m1", "m2", "l1", "l2", "gravity", "nominal_scale"):
        positive(f"pendulum.{name}", getattr(cfg.pendulum, name))
    gamma = cfg.inspan.gamma
    if not (isinstance(gamma, tuple) and gamma and all(_integer(g, 1) for g in gamma)):
        problems.append(f"inspan.gamma: must be a non-empty list of integers >= 1, "
                        f"got {gamma!r}")
    positive("inspan.theta_star_scale", cfg.inspan.theta_star_scale)
    integer("inspan.theta_star_seed", cfg.inspan.theta_star_seed, 0)
    if not _number(cfg.inspan.phi0_scale):
        problems.append(f"inspan.phi0_scale: must be a number, got {cfg.inspan.phi0_scale!r}")
    if cfg.basis is not None:
        if cfg.basis.kind not in ("rbf_grid", "polynomial"):
            problems.append(f"basis.kind: must be 'rbf_grid' or 'polynomial', "
                            f"got {cfg.basis.kind!r}")
        lists_ok = [
            entries("basis.box", cfg.basis.box, lambda b: isinstance(b, tuple) and len(b) == 2
                    and all(map(_number, b)) and b[0] < b[1], "(lo, hi) pairs with lo < hi"),
            entries("basis.counts", cfg.basis.counts, lambda c: _integer(c, 1), "integers >= 1")]
        if cfg.basis.kind == "rbf_grid":
            if all(lists_ok) and len(cfg.basis.box) != len(cfg.basis.counts):
                problems.append("basis: box and counts must have matching lengths")
            positive("basis.width_rule", cfg.basis.width_rule)
        integer("basis.degree", cfg.basis.degree, 0)
        positive("basis.beta_scale", cfg.basis.beta_scale)
        positive("basis.alpha_scale", cfg.basis.alpha_scale)
    entries("sweep.dt", cfg.sweep.dt, lambda v: _number(v) and v > 0, "positive numbers")
    entries("sweep.sigma2", cfg.sweep.sigma2, lambda v: _number(v) and v > 0, "positive numbers")
    entries("sweep.lambda", cfg.sweep.lam, lambda v: _number(v) and 0 < v < 1,
            "numbers in (0, 1)")
    # the runners take int(round(horizon_s / dt)) steps: none up to a ratio of 0.5
    for dt in (cfg.dt,) + (cfg.sweep.dt if isinstance(cfg.sweep.dt, tuple) else ()):
        if _number(dt) and dt > 0 and _number(cfg.horizon_s) and 0 < cfg.horizon_s / dt <= 0.5:
            problems.append(f"horizon_s: {cfg.horizon_s!r} s is 0 steps at dt {dt!r}")
    positive("diag.window_s", cfg.diag.window_s)
    positive("diag.fit_step", cfg.diag.fit_step)
    integer("diag.grid_points", cfg.diag.grid_points, 3)
    integer("diag.stride", cfg.diag.stride, 1)


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``dotted.key=value`` overrides onto a parsed config mapping.

    Values are parsed as YAML scalars/lists, so ``sweep.dt=[0.1,0.05]`` and
    ``sigma2=0.2`` both work.
    """
    out = dict(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"override {item!r}: expected KEY=VALUE"])
        key, raw = item.split("=", 1)
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError:
            raise ConfigError([f"override {item!r}: value does not parse"])
        node = out
        parts = key.strip().split(".")
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = {}
            node[part] = dict(child)
            node = node[part]
        node[parts[-1]] = value
    return out


def load_config(path, overrides=()) -> ExperimentConfig:
    """Parse, override, and validate a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: cannot read config file: {exc}"])
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: YAML parse failure: {exc}"])
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    if overrides:
        data = apply_overrides(data, overrides)
    return config_from_dict(data)
