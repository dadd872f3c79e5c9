"""Pruning schedules and the prune-and-fine-tune loop.

A run starts by building the initial zeroed model from the chosen strategy
(one prune event at update 0, at the schedule's first rate r1), then
fine-tunes on the target labeled data for exactly N updates.  Under the
iterative and dynamic-iterative frequencies the remaining rates are consumed
one per interval: after every n updates the CURRENT weights are re-ranked by
magnitude and re-zeroed (these in-loop events are magnitude-only and
independent of the initial strategy).  A prune point landing exactly on
update N is executed; training never exceeds N updates.  The final model
carries no mask of any kind.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .params import ParameterSet, atomic_write_text
from .pruning import apply_zeroing, compute_ump_mask, save_mask, sparsity
from .strategies import initial_model
from .trainer import LabeledBatch, TrainConfig, dataset_loss, evaluate, sgd_train

FREQUENCIES = ("once", "iterative", "dynamic_iterative")

# Rate presets reported for the two pre-trained model scales, keyed by
# frequency: one rate for "once", constant rates for "iterative", strictly
# decaying rates for "dynamic_iterative".
LARGE_RATE_PRESETS = {
    "once": (40.0,),
    "iterative": (30.0, 30.0, 30.0),
    "dynamic_iterative": (40.0, 20.0, 10.0),
}
BASE_RATE_PRESETS = {
    "once": (30.0,),
    "iterative": (30.0, 30.0, 30.0),
    "dynamic_iterative": (30.0, 25.0, 20.0, 10.0),
}
RATE_PRESETS = {"large": LARGE_RATE_PRESETS, "base": BASE_RATE_PRESETS}


class ScheduleError(ValueError):
    """A PruneSchedule violates one of its invariants."""


class ConfigError(ValueError):
    """Inconsistent run configuration (e.g. an unknown strategy or a missing field)."""


@dataclass(frozen=True)
class PruneSchedule:
    """Pruning frequency, the rate sequence r1..rk, total updates N, interval n."""

    freq: str
    rates: tuple[float, ...]
    total_updates: int
    interval: int

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))


def preset_schedule(size: str, freq: str, total_updates: int, interval: int) -> PruneSchedule:
    """Schedule with the preset rates for a model scale ("large" or "base")."""
    if size not in RATE_PRESETS:
        raise ScheduleError(f"unknown preset size {size!r}, expected one of {tuple(RATE_PRESETS)}")
    if freq not in FREQUENCIES:
        raise ScheduleError(f"unknown pruning frequency {freq!r}")
    return PruneSchedule(freq, RATE_PRESETS[size][freq], total_updates, interval)


def validate(sched: PruneSchedule) -> None:
    """Raise :class:`ScheduleError` with a distinct message per violated invariant."""
    if sched.freq not in FREQUENCIES:
        raise ScheduleError(f"unknown pruning frequency {sched.freq!r}")
    if len(sched.rates) < 1:
        raise ScheduleError("schedule needs at least one pruning rate")
    for r in sched.rates:
        if not 0.0 <= r <= 100.0:
            raise ScheduleError(f"pruning rate {r} outside [0, 100]")
    if sched.freq == "once" and len(sched.rates) != 1:
        raise ScheduleError("'once' takes exactly one pruning rate")
    if sched.freq == "iterative" and len(set(sched.rates)) != 1:
        raise ScheduleError("'iterative' requires all pruning rates equal")
    if sched.freq == "dynamic_iterative":
        if any(a <= b for a, b in zip(sched.rates, sched.rates[1:])):
            raise ScheduleError("'dynamic_iterative' requires strictly decreasing rates")
    if sched.total_updates < 1:
        raise ScheduleError("total_updates must be positive")
    if sched.interval < 1:
        raise ScheduleError("interval must be positive")
    if sched.interval > sched.total_updates:
        raise ScheduleError("interval must not exceed total_updates")


@dataclass
class PruneEvent:
    update: int
    rate: float
    sparsity_before: float
    sparsity_after: float
    train_loss: float


@dataclass
class PadaRunLog:
    """Per-event records plus final evaluation metrics for one run."""

    events: list[PruneEvent] = field(default_factory=list)
    final: dict = field(default_factory=dict)


def write_log_jsonl(log: PadaRunLog, path: str) -> None:
    """One JSON object per line: prune events in order, then a final record."""
    lines = []
    for ev in log.events:
        lines.append(json.dumps({"kind": "prune", **asdict(ev)}))
    lines.append(json.dumps({"kind": "final", **log.final}))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_log_jsonl(path: str) -> PadaRunLog:
    log = PadaRunLog()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.pop("kind")
            if kind == "prune":
                log.events.append(PruneEvent(**rec))
            else:
                log.final = rec
    return log


def run_pada(
    pretrained: ParameterSet,
    strategy: str,
    sched: PruneSchedule,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    donor: ParameterSet | None = None,
    finetuned: ParameterSet | None = None,
    eval_data: LabeledBatch | None = None,
    save_mask_to: str | None = None,
) -> tuple[ParameterSet, PadaRunLog]:
    """Prune-assisted fine-tuning: strategy prune at update 0, then train to N.

    ``strategy`` is a kind from :data:`~pada.strategies.STRATEGY_KINDS`; its
    initial mask prunes at the schedule's first rate r1.  Event i lands at
    update i*n while rates remain and i*n <= N; the logged "train_loss" is the
    loss over the full target labeled set at that point.  Returns the adapted model (no persistent mask) and the run log.
    TAW ranks ``finetuned`` (the target fine-tuned model), CD-TAW ``donor``.
    ``save_mask_to`` optionally writes the initial strategy mask as a .padm
    file for later similarity analysis.
    """
    validate(sched)
    if not isinstance(target_data, LabeledBatch):
        raise ValueError("prune-assisted fine-tuning requires a LabeledBatch")
    n_total = sched.total_updates
    log = PadaRunLog()

    s_before = sparsity(pretrained)
    model, mask0 = initial_model(
        pretrained, strategy, sched.rates[0], finetuned=finetuned, donor=donor
    )
    if save_mask_to is not None:
        save_mask(mask0, save_mask_to)
    log.events.append(_prune_event(0, sched.rates[0], s_before, model, target_data))

    rng = np.random.default_rng(cfg.seed)
    done = 0
    next_rate = 1  # rates[0] was consumed by the strategy at update 0
    while done < n_total:
        # train to the next prune point, or straight to N once no rate is left
        pruning = next_rate < len(sched.rates)
        chunk = min(sched.interval, n_total - done) if pruning else n_total - done
        model, _ = sgd_train(model, target_data, cfg, chunk, rng, step_offset=done)
        done += chunk
        if pruning and done % sched.interval == 0:
            s_before = sparsity(model)
            mask = compute_ump_mask(model, sched.rates[next_rate], source="in-loop")
            model = apply_zeroing(model, mask)
            log.events.append(
                _prune_event(done, sched.rates[next_rate], s_before, model, target_data)
            )
            next_rate += 1

    # sgd_train/apply_zeroing built ``model`` fresh, so its tensors are ours
    adapted = ParameterSet(model.tensors, "adapted", dict(model.meta))
    log.final = _final_record(adapted, n_total, strategy, sched.freq, target_data, eval_data)
    return adapted, log


def run_dft(
    pretrained: ParameterSet,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    eval_data: LabeledBatch | None = None,
) -> tuple[ParameterSet, PadaRunLog]:
    """Direct fine-tuning baseline: cfg.updates SGD steps, no pruning at all."""
    if not isinstance(target_data, LabeledBatch):
        raise ValueError("direct fine-tuning requires a LabeledBatch")
    rng = np.random.default_rng(cfg.seed)
    model, _ = sgd_train(pretrained, target_data, cfg, cfg.updates, rng)
    model = ParameterSet(model.tensors, "finetuned_target", dict(model.meta))
    log = PadaRunLog()
    log.final = _final_record(model, cfg.updates, "DFT", "-", target_data, eval_data)
    return model, log


def _prune_event(update, rate, sparsity_before, model, target_data) -> PruneEvent:
    """The log record of a prune event that has just zeroed ``model``."""
    after = sparsity(model)
    loss = dataset_loss(model, target_data, "cross_entropy")
    return PruneEvent(update, rate, sparsity_before, after, loss)


def _final_record(model, total_updates, strategy, freq, target_data, eval_data) -> dict:
    """The "final" log record of a trained model (key order is the file format)."""
    final = {
        "total_updates": total_updates,
        "strategy": strategy,
        "frequency": freq,
        "final_sparsity": sparsity(model) if model.d_prunable else 0.0,
        "train_loss": dataset_loss(model, target_data, "cross_entropy"),
    }
    if eval_data is not None:
        final["error_rate"] = evaluate(model, eval_data)
    return final
