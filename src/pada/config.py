"""Experiment configuration: one JSON document fully captures a run.

The document pins the synthetic task, the architecture, the per-stage train
configs, the schedule rates per frequency, the strategy/frequency grid, the
seed sweep and the output directory, and nothing else sets any of them, so
rerunning the same config reproduces every output byte.
The dataclasses are the schema of the sections that build them (:func:`_section`).
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_type_hints

from .data import DomainShiftSpec
from .params import Fields, NonNegativeInt, read_json
from .schedule import FREQUENCIES, LARGE_RATE_PRESETS, PruneSchedule, validate
from .strategies import STRATEGY_KINDS
from .trainer import TrainConfig, ModelArch


class ConfigError(ValueError):
    """Inconsistent run configuration (e.g. an unknown strategy or a missing field)."""


# Each dataclass's field types, resolved once (get_type_hints re-evaluates the
# string annotations on every call), and its fields with a default.
_TYPES = {cls: get_type_hints(cls) for cls in (DomainShiftSpec, ModelArch, TrainConfig)}
_DEFAULTED = {cls: {f.name for f in fields(cls) if f.default is not MISSING} for cls in _TYPES}


def _object(doc, path: str, types: dict, optional=()) -> dict:
    """``doc`` at ``path`` read by :class:`~pada.params.Fields` as ``types``; else a ConfigError."""
    try:
        return Fields(types, optional).read(doc, path, "the config")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    required = {"strategies": list[str], "frequencies": list[str], "seeds": list[NonNegativeInt],
                "out": str}
    optional = {"include_dft": bool}
    top = _object(doc, "", sections | required | optional, optional)
    task = {"seed": NonNegativeInt} | _TYPES[DomainShiftSpec]
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
        return parse_config(read_json(path))
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
