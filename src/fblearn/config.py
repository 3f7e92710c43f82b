"""Experiment configuration: a strict, nested key-value file.

Configs are YAML mappings.  Unknown keys anywhere are errors, every
offending field is reported at once, and a seed is mandatory so no run ever
depends on ambient entropy.  ``lambda`` is the sweep key for the confidence
levels (stored as ``lam``, since ``lambda`` is reserved in Python).

Each key is one dataclass field carrying its default and its rule: a
predicate and the phrase its error prints.  :func:`_walk` applies them.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
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


def _number(value) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _whole(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _rule(default, test, what: str):
    """A field whose given value must pass ``test``; a failure prints ``must {what}``."""
    return field(default=default, metadata={"rule": (test, what)})


def _positive(default: float):
    return _rule(default, lambda v: _number(v) and v > 0, "be a positive number")


def _integer(default: int, minimum: int):
    return _rule(default, lambda v: _whole(v, minimum), f"be an integer >= {minimum}")


def _one_of(default, options: tuple):
    return _rule(default, lambda v: v in options, f"be one of {options}")


def _entries(default, valid, what: str, distinct: bool = False):
    """A list of entries that each pass ``valid``, no value twice if ``distinct``."""
    return _rule(default, lambda v: isinstance(v, tuple) and all(map(valid, v))
                 and (not distinct or len(set(v)) == len(v)),
                 f"be a list of {'distinct ' if distinct else ''}{what}")


def _section(cls, default=MISSING):
    """A mapping built as ``cls``; it defaults to ``cls()`` unless ``default`` is given."""
    return field(default=default, default_factory=cls if default is MISSING else MISSING,
                 metadata={"section": cls, "rule": (lambda v: isinstance(v, dict), "be a mapping")})


@dataclass(frozen=True)
class PendulumSection:
    """True plant parameters and the scale factor for the mismatched nominal."""

    m1: float = _positive(1.0)
    m2: float = _positive(1.0)
    l1: float = _positive(1.0)
    l2: float = _positive(1.0)
    gravity: float = _positive(9.81)
    nominal_scale: float = _positive(1.3)


@dataclass(frozen=True)
class InspanSection:
    """Shape of the synthetic plant with a representable true controller."""

    gamma: tuple = _rule((2,), lambda v: isinstance(v, tuple) and len(v) > 0
                         and all(_whole(g, 1) for g in v),
                         "be a non-empty list of integers >= 1")
    theta_star_scale: float = _positive(0.15)
    theta_star_seed: int = _integer(7, 0)
    phi0_scale: float = _rule(0.5, _number, "be a number")


@dataclass(frozen=True)
class BasisSection:
    """Approximator layout: an RBF grid or a polynomial feature set.

    ``kind`` selects the family; the grid fields apply to ``rbf_grid`` and
    ``degree`` to ``polynomial``.  The output scales set how strongly a unit
    parameter moves the controller (the per-block adaptation gains).
    """

    kind: str = _one_of("rbf_grid", ("rbf_grid", "polynomial"))
    box: tuple = _entries((), lambda b: isinstance(b, tuple) and len(b) == 2
                          and all(map(_number, b)) and b[0] < b[1],
                          "(lo, hi) pairs with lo < hi")
    counts: tuple = _entries((), lambda c: _whole(c, 1), "integers >= 1")
    width_rule: float = _positive(1.0)
    degree: int = _integer(1, 0)
    beta_scale: float = _positive(1.0)
    alpha_scale: float = _positive(1.0)


@dataclass(frozen=True)
class SweepSection:
    """Sweep lists for the Monte Carlo subcommand (empty list = no sweep)."""

    dt: tuple = _entries((), lambda v: _number(v) and v > 0, "positive numbers", distinct=True)
    sigma2: tuple = _entries((), lambda v: _number(v) and v > 0, "positive numbers", distinct=True)
    lam: tuple = _entries((0.3, 0.1, 0.03), lambda v: _number(v) and 0 < v < 1,
                          "numbers in (0, 1)")


@dataclass(frozen=True)
class DiagSection:
    """Knobs for the excitation / stability diagnostics."""

    window_s: float = _positive(10.0)
    grid_points: int = _integer(9, 3)
    fit_step: float = _positive(0.02)
    stride: int = _integer(1, 1)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = _one_of(MISSING, SCENARIOS)
    seed: int = _rule(MISSING, lambda v: _whole(v, 0) and v < 2 ** 128,
                      "be an integer in [0, 2**128)")
    dt: float = _positive(0.05)
    sigma2: float = _positive(0.1)
    noise_clip: float = _positive(5.0)
    pole: float = _rule(-1.5, lambda v: _number(v) and v < 0, "be a negative number")
    horizon_s: float = _positive(60.0)
    baseline: str = _one_of("mean_of_past", BASELINES)
    substeps: int = _integer(10, 1)
    trials: int = _integer(200, 2)
    x0: tuple | None = _entries(None, _number, "numbers")
    reference: tuple | None = _entries(None, lambda channel: isinstance(channel, tuple) and all(
        isinstance(term, tuple) and len(term) == 3 and all(map(_number, term))
        for term in channel), "channels, each a list of (amplitude, frequency, phase) triples")
    pendulum: PendulumSection = _section(PendulumSection)
    inspan: InspanSection = _section(InspanSection)
    basis: BasisSection | None = _section(BasisSection, None)
    sweep: SweepSection = _section(SweepSection)
    diag: DiagSection = _section(DiagSection)

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


def _tuplify(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _walk(cls, data: dict, prefix: str, problems: list) -> dict:
    """The keyword arguments of ``cls`` for one level of a parsed mapping.

    Lists become tuples and ``null`` is taken where the default is ``None``;
    each unknown key and each value that fails its rule goes to ``problems``.
    """
    by_key = {("lambda" if f.name == "lam" else f.name): f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        f, value = by_key.get(key), _tuplify(value)
        if f is None:
            problems.append(f"{prefix}{key}: unknown key")
        elif value is None and f.default is None:
            kwargs[f.name] = None
        elif not f.metadata["rule"][0](value):
            problems.append(f"{prefix}{key}: must {f.metadata['rule'][1]}, got {value!r}")
        elif "section" in f.metadata:
            section = f.metadata["section"]
            kwargs[f.name] = section(**_walk(section, value, f"{prefix}{key}.", problems))
        else:
            kwargs[f.name] = value
    return kwargs


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from a parsed mapping.

    Raises ``ConfigError`` listing every offending field.  The rules that
    relate two fields run once every field has passed its own.
    """
    if not isinstance(data, dict):
        raise ConfigError(["config file must contain a mapping at the top level"])
    problems: list[str] = []
    kwargs = _walk(ExperimentConfig, data, "", problems)
    if "scenario" not in data:
        problems.append("scenario: required")
    if "seed" not in data:
        problems.append("seed: required (runs never draw ambient entropy)")
    if problems:
        raise ConfigError(problems)

    cfg = ExperimentConfig(**kwargs)
    basis = cfg.basis
    if basis is not None and basis.kind == "rbf_grid" and len(basis.box) != len(basis.counts):
        problems.append("basis: box and counts must have matching lengths")
    # the runners take int(round(horizon_s / dt)) steps: none up to a ratio of 0.5
    problems += [f"horizon_s: {cfg.horizon_s!r} s is 0 steps at dt {dt!r}"
                 for dt in (cfg.dt,) + cfg.sweep.dt if cfg.horizon_s / dt <= 0.5]
    if problems:
        raise ConfigError(problems)
    return cfg


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
