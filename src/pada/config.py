"""Experiment configuration: one JSON document fully captures a run.

The document pins the synthetic task, the architecture, the per-stage train
configs, the schedule rates per frequency, the strategy/frequency grid and
the seed sweep, so rerunning the same config reproduces every output byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .data import DomainShiftSpec
from .schedule import FREQUENCIES, LARGE_RATE_PRESETS, PruneSchedule, validate
from .strategies import STRATEGY_KINDS
from .trainer import TrainConfig, ModelArch


class ConfigError(ValueError):
    """Inconsistent run configuration (e.g. an unknown strategy or a missing field)."""


def _req(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing config field: {where}.{key}" if where else f"missing config field: {key}")
    return doc[key]


def _train_cfg(doc: dict, where: str, **extra) -> TrainConfig:
    fields = {key: _req(doc, key, where) for key in ("lr", "batch", "updates", "seed")}
    return TrainConfig(**fields, **extra)


def _int(value, field: str) -> int:
    """A JSON integer; an integral float such as 2000.0 counts, a bool or a fraction does not."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _config_seeds(value) -> list[int]:
    """The config's seed sweep: a JSON list of integers."""
    if not isinstance(value, list):
        raise ConfigError(f"seeds must be a JSON list of integers, got {value!r}")
    return check_seeds([_int(s, "seeds") for s in value])


def check_seeds(seeds) -> list[int]:
    """The seed sweep as a list of ints; it must be nonempty and hold no duplicates."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("seed list must be nonempty")
    dups = sorted({s for s in seeds if seeds.count(s) > 1})
    if dups:
        raise ConfigError(f"duplicate seeds in seed list: {dups}")
    return seeds


@dataclass
class ExperimentConfig:
    task_seed: int
    task: DomainShiftSpec
    arch: ModelArch
    pretrain: TrainConfig
    donor: TrainConfig
    target_lr: float
    target_batch: int
    total_updates: int  # N: the target fine-tune's TrainConfig.updates
    interval: int
    rates: dict[str, tuple[float, ...]]
    strategies: list[str]
    frequencies: list[str]
    include_dft: bool
    seeds: list[int]
    out: str
    pretrained_file: str = "pretrained.pada"
    donor_file: str = "donor.pada"

    def schedule_for(self, freq: str) -> PruneSchedule:
        return PruneSchedule(freq, self.rates[freq], self.interval)

    def target_cfg(self, seed: int) -> TrainConfig:
        return TrainConfig(
            lr=self.target_lr,
            batch=self.target_batch,
            updates=self.total_updates,
            seed=seed,
        )

    def cells(self) -> list[tuple[str, str]]:
        """(strategy, frequency) grid in table order; DFT first when included."""
        grid = [("DFT", "-")] if self.include_dft else []
        grid += [(s, f) for s in self.strategies for f in self.frequencies]
        return grid


def parse_config(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a plain JSON document."""
    task_doc = dict(_req(doc, "task", ""))
    task_seed = _int(_req(task_doc, "seed", "task"), "task.seed")
    task_doc.pop("seed")
    task = DomainShiftSpec(**task_doc)

    arch_doc = _req(doc, "arch", "")
    arch = ModelArch(
        input_dim=task.input_dim,
        hidden=tuple(_req(arch_doc, "hidden", "arch")),
        num_classes=task.num_classes,
        activation=arch_doc.get("activation", "tanh"),
    )

    pre_doc = _req(doc, "pretrain", "")
    pretrain = _train_cfg(pre_doc, "pretrain", denoise_std=pre_doc.get("denoise_std", 0.1))
    donor = _train_cfg(_req(doc, "donor", ""), "donor")
    tgt_doc = _req(doc, "target", "")
    target_lr = float(_req(tgt_doc, "lr", "target"))
    target_batch = _int(_req(tgt_doc, "batch", "target"), "target.batch")

    sched_doc = _req(doc, "schedule", "")
    total_updates = _int(_req(sched_doc, "total_updates", "schedule"), "schedule.total_updates")
    interval = _int(_req(sched_doc, "interval", "schedule"), "schedule.interval")
    rates_doc = _req(sched_doc, "rates", "schedule")
    rates = {k: tuple(float(r) for r in v) for k, v in rates_doc.items()}

    strategies = list(_req(doc, "strategies", ""))
    for s in strategies:
        if s not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {s!r} in config")
    frequencies = list(_req(doc, "frequencies", ""))
    for f in frequencies:
        if f not in FREQUENCIES:
            raise ConfigError(f"unknown frequency {f!r} in config")
        if f not in rates:
            raise ConfigError(f"missing config field: schedule.rates.{f}")

    include_dft = doc.get("include_dft", True)
    if not isinstance(include_dft, bool):
        raise ConfigError(f"include_dft must be true or false, got {include_dft!r}")
    cfg = ExperimentConfig(
        task_seed=task_seed,
        task=task,
        arch=arch,
        pretrain=pretrain,
        donor=donor,
        target_lr=target_lr,
        target_batch=target_batch,
        total_updates=total_updates,
        interval=interval,
        rates=rates,
        strategies=strategies,
        frequencies=frequencies,
        include_dft=include_dft,
        seeds=_config_seeds(_req(doc, "seeds", "")),
        out=str(_req(doc, "out", "")),
        pretrained_file=str(doc.get("pretrained", "pretrained.pada")),
        donor_file=str(doc.get("donor_checkpoint", "donor.pada")),
    )
    for f in cfg.frequencies:
        validate(cfg.schedule_for(f), cfg.total_updates)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)


def default_config() -> dict:
    """The default desk-scale experiment (JSON-ready document)."""
    return {
        "task": {
            "seed": 7,
            "num_classes": 6,
            "input_dim": 16,
            "rotation_deg": 35.0,
            "feature_scale": 1.15,
            "noise_std": 0.35,
            "class_std": 1.0,
            "mean_scale": 1.0,
            "source_unlabeled": 4000,
            "source_labeled": 4000,
            "target_labeled": None,
            "target_eval": 2000,
        },
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
        "pretrained": "pretrained.pada",
        "donor_checkpoint": "donor.pada",
    }
