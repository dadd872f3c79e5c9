"""Experiment configuration: one JSON document fully captures a run.

The document pins the synthetic task, the architecture, the per-stage train
configs, the schedule rates per frequency, the strategy/frequency grid, the
seed sweep and the output directory, and nothing else sets any of them, so
rerunning the same config reproduces every output byte.
The dataclasses are the schema of the sections that build them (:func:`_section`).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import NewType, get_args, get_origin, get_type_hints

from .data import DomainShiftSpec
from .schedule import FREQUENCIES, LARGE_RATE_PRESETS, PruneSchedule, validate
from .strategies import STRATEGY_KINDS
from .trainer import TrainConfig, ModelArch


class ConfigError(ValueError):
    """Inconsistent run configuration (e.g. an unknown strategy or a missing field)."""


# A random seed: numpy's generators refuse a negative one, but only when a
# stage starts, so the config refuses it first.
Seed = NewType("Seed", int)

# Each dataclass's field types, resolved once (get_type_hints re-evaluates the
# string annotations on every call), and its fields with a default.
_TYPES = {cls: get_type_hints(cls) for cls in (DomainShiftSpec, ModelArch, TrainConfig)}
_TYPES[TrainConfig]["seed"] = Seed
_DEFAULTED = {cls: {f.name for f in fields(cls) if f.default is not MISSING} for cls in _TYPES}
_KINDS = {int: "an integer", Seed: "a non-negative integer", float: "a number", str: "a string",
          bool: "a bool", dict: "an object"}


def _value(value, tp, path: str):
    """``value`` read as the annotation ``tp``, or a ConfigError naming ``path``.

    An int must be integral (2000.0 counts) and a float finite, neither a bool;
    a Seed is an int that is not negative.
    """
    origin, args = get_origin(tp), get_args(tp)
    try:
        if type(None) in args:  # X | None
            return None if value is None else _value(value, args[0], path)
        if origin in (list, tuple) and type(value) is list:
            return origin(_value(item, args[0], path) for item in value)
        integral = type(value) is int or type(value) is float and value.is_integer()
        if tp in (int, Seed) and integral and (tp is int or value >= 0):
            return int(value)
        if tp is float and type(value) in (int, float) and math.isfinite(value):
            return float(value)
        if type(value) is tp:  # str, bool, dict
            return value
    except (ConfigError, OverflowError):  # an item refused, or an int too large for a float
        pass
    kind = _KINDS[args[0] if args else tp]
    kind = f"{kind} or null" if type(None) in args else f"a list, each {kind}" if args else kind
    raise ConfigError(f"{path} must be {kind}, got {value!r}")


def _object(doc, path: str, types: dict, optional=()) -> dict:
    """Object ``doc`` at ``path`` read as ``types``; only the ``optional`` keys may be missing."""
    doc = _value(doc, dict, path or "the config")
    where = f"{path}." if path else ""
    for key in [*doc, *types]:
        if key not in types:
            raise ConfigError(f"unknown config field: {where}{key}")
        if key not in doc and key not in optional:
            raise ConfigError(f"missing config field: {where}{key}")
    return {key: _value(value, types[key], where + key) for key, value in doc.items()}


def _section(cls, doc, path: str, *keys, **given):
    """Section ``path`` as a ``cls``: its keys (all fields unless named) typed by the annotations,
    optional where the field has a default; ``given`` fills the rest.  A refused bound names it."""
    values = _object(doc, path, {k: _TYPES[cls][k] for k in keys or _TYPES[cls]}, _DEFAULTED[cls])
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _distinct(values: list, what: str) -> list:
    dups = sorted({v for v in values if values.count(v) > 1})
    if dups:
        raise ConfigError(f"duplicate {what}: {dups}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    task_seed: int
    task: DomainShiftSpec
    arch: ModelArch
    pretrain: TrainConfig
    donor: TrainConfig
    target: TrainConfig  # updates is N; each run trains with its own seed
    strategies: list[str]
    schedules: dict[str, PruneSchedule]  # each grid frequency's validated schedule, in grid order
    include_dft: bool
    seeds: list[int]
    out: str  # the directory every stage writes to, and make-donor and run read from

    def cells(self) -> list[tuple[str, str]]:
        """(strategy, frequency) grid in table order; DFT first when included."""
        grid = [("DFT", "-")] if self.include_dft else []
        grid += [(s, f) for s in self.strategies for f in self.schedules]
        return grid


def parse_config(doc) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a plain JSON document."""
    sections = dict.fromkeys(("task", "arch", "pretrain", "donor", "target", "schedule"), dict)
    required = {"strategies": list[str], "frequencies": list[str], "seeds": list[Seed], "out": str}
    optional = {"include_dft": bool}
    top = _object(doc, "", sections | required | optional, optional)
    task = {"seed": Seed} | _TYPES[DomainShiftSpec]
    task = _object(top["task"], "task", task, _DEFAULTED[DomainShiftSpec])
    task_seed = task.pop("seed")
    task = _section(DomainShiftSpec, task, "task")
    sched = {"total_updates": int, "interval": int, "rates": dict}
    sched = _object(top["schedule"], "schedule", sched)
    # the grid's frequencies need rates; the other frequencies may have them
    rates = dict.fromkeys(FREQUENCIES, tuple[float, ...])
    rates = _object(sched["rates"], "schedule.rates", rates, {*FREQUENCIES} - {*top["frequencies"]})
    for s in top["strategies"]:
        if s not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {s!r} in config")
    schedules = {}
    for f in _distinct(top["frequencies"], "frequencies"):
        if f not in FREQUENCIES:
            raise ConfigError(f"unknown frequency {f!r} in config")
        schedules[f] = PruneSchedule(f, rates[f], sched["interval"])
        validate(schedules[f], sched["total_updates"])
    cfg = ExperimentConfig(
        task_seed=task_seed,
        task=task,
        arch=_section(ModelArch, top["arch"], "arch", "hidden", "activation",
                      input_dim=task.input_dim, num_classes=task.num_classes),
        pretrain=_section(TrainConfig, top["pretrain"], "pretrain"),
        # the donor and target fine-tunes train on labels, so they read no denoise_std
        donor=_section(TrainConfig, top["donor"], "donor", "lr", "batch", "updates", "seed"),
        target=_section(TrainConfig, top["target"], "target", "lr", "batch",
                        updates=sched["total_updates"], seed=0),
        strategies=_distinct(top["strategies"], "strategies"),
        schedules=schedules,
        include_dft=top.get("include_dft", True),
        seeds=_distinct(top["seeds"], "seeds in seed list"),
        out=top["out"],
    )
    if not cfg.seeds:
        raise ConfigError("seed list must be nonempty")
    if not cfg.out or "\0" in cfg.out:  # no stage could write there
        raise ConfigError(f"out must be a nonempty path without a null byte, got {cfg.out!r}")
    if not cfg.cells():
        raise ConfigError("the grid plans no run: include_dft is false, and strategies or "
                          "frequencies is empty")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return parse_config(doc)
    except ValueError as exc:  # a ScheduleError too, which is not a ConfigError
        raise ConfigError(f"{path}: {exc}") from exc


def default_config() -> dict:
    """The default desk-scale experiment (JSON-ready document)."""
    return {
        "task": {"seed": 7, **asdict(DomainShiftSpec())},
        "arch": {"hidden": [32, 32], "activation": "tanh"},
        "pretrain": {"lr": 0.05, "batch": 32, "updates": 3000, "seed": 101, "denoise_std": 0.3},
        "donor": {"lr": 0.05, "batch": 32, "updates": 3000, "seed": 202},
        "target": {"lr": 0.05, "batch": 16},
        "schedule": {
            "total_updates": 2000,
            "interval": 500,
            "rates": {freq: list(rates) for freq, rates in LARGE_RATE_PRESETS.items()},
        },
        "strategies": ["TAG", "TAW", "CD-TAW"],
        "frequencies": ["once", "iterative", "dynamic_iterative"],
        "include_dft": True,
        "seeds": list(range(10)),
        "out": "runs/default",
    }
