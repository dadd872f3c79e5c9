"""Pruning schedules and the prune-and-fine-tune loop.

A :class:`PruneSchedule` plans only the pruning: a frequency, the rates
r1..rk and an interval n.  The training length N is the run's
``TrainConfig.updates``, as for direct fine-tuning, which has an N but no
schedule.  A run starts by building the initial zeroed model from the chosen
strategy (one prune event at update 0, at r1), then fine-tunes on the target
labeled data for exactly N updates.  Under the iterative and
dynamic-iterative frequencies the remaining rates are consumed one per
interval: after every n updates the CURRENT weights are re-ranked by
magnitude and re-zeroed (these in-loop events are magnitude-only and
independent of the initial strategy).  A prune point landing exactly on
update N is executed; training never exceeds N updates.  The final model
carries no mask of any kind.  Logged losses use the loss the target data
trains with, which its type decides.

One executor, :func:`run_cells`, runs every cell of every seed.  The cells
of a seed draw the same minibatches from ``default_rng(seed)``, and prune
points depend on the schedule alone, so a wave of cells over all seeds
trains as one :class:`~pada.trainer.ModelStack`, with one minibatch per
seed, that stops at each of its cells' prune points.  A cell keeps its stack
slot for the whole wave, unread once it diverges.  TAW ranks its seed's DFT
model, so the TAW cells form a second wave; :func:`run_cells` alone knows
this, hands wave 2 the DFT models and scores the runs it returns once each
wave has released its stack.  A wave only trains the cells it is given.
:func:`run_pada` and :func:`run_dft` are one-cell calls of the same executor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

import numpy as np

from .params import FormatError, ParameterSet, atomic_write_text
from .pruning import Mask, apply_zeroing, compute_ump_mask, sparsity
from .strategies import initial_model
from .trainer import (
    LabeledBatch,
    ModelStack,
    TrainConfig,
    TrainingDivergedError,
    check_data,
    dataset_loss,
    evaluate,
)

FREQUENCIES = ("once", "iterative", "dynamic_iterative")

# Rates reported for the large pre-trained model scale, keyed by frequency:
# one rate for "once", constant rates for "iterative", strictly decaying
# rates for "dynamic_iterative".
LARGE_RATE_PRESETS = {
    "once": (40.0,),
    "iterative": (30.0, 30.0, 30.0),
    "dynamic_iterative": (40.0, 20.0, 10.0),
}


class ScheduleError(ValueError):
    """A PruneSchedule violates one of its invariants."""


@dataclass(frozen=True)
class PruneSchedule:
    """Pruning frequency, the rate sequence r1..rk and the interval n."""

    freq: str
    rates: tuple[float, ...]
    interval: int

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))


def validate(sched: PruneSchedule, updates: int) -> None:
    """Raise :class:`ScheduleError`, one message per invariant, for ``sched`` over N=``updates``."""
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
    if updates < 1:
        raise ScheduleError("total_updates must be positive")
    if sched.interval < 1:
        raise ScheduleError("interval must be positive")
    if sched.interval > updates:
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


# what each field of a record must be; "error_rate" only when the run was scored
_KIND = {int: "a non-negative integer", float: "a number"}
_FIELDS = {
    "prune": {name: _KIND[tp] for name, tp in get_type_hints(PruneEvent).items()},
    "final": {
        "total_updates": "a non-negative integer",
        "strategy": "a string",
        "frequency": "a string",
        "final_sparsity": "a number",
        "train_loss": "a number",
        "error_rate": "a number",
        "seed": "a non-negative integer",
    },
}
_IS = {
    "a string": lambda v: type(v) is str,
    "a number": lambda v: type(v) in (int, float),
    "a non-negative integer": lambda v: type(v) is int and v >= 0,
}


def _check_record(kind: str, rec: dict) -> None:
    """Raise ValueError unless the ``kind`` record ``rec`` has each field, of its type."""
    for key, want in _FIELDS[kind].items():
        if key not in rec:
            if key != "error_rate":
                raise ValueError(f"{kind} record has no {key}")
        elif not _IS[want](rec[key]):
            raise ValueError(f"{kind} record's {key} must be {want}, got {rec[key]!r}")


def read_log_jsonl(path: str) -> PadaRunLog:
    """Inverse of :func:`write_log_jsonl`; anything else is a FormatError naming the line.

    The log must end with its one final record, and every record's fields
    have the types :func:`write_log_jsonl` writes.
    """
    log, final_line, lineno = PadaRunLog(), None, 0
    with open(path, "rb") as fh:  # each line is decoded where a bad byte can name it
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line.decode("utf-8"))
                kind = rec.pop("kind", None) if isinstance(rec, dict) else None
                if kind == "prune":
                    log.events.append(PruneEvent(**rec))
                elif kind == "final":
                    log.final = rec
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
                _check_record(kind, rec)
                if final_line is not None:
                    raise ValueError(f"{kind} record after the final record of line {final_line}")
                if kind == "final":
                    final_line = lineno
            except (ValueError, TypeError) as exc:  # not UTF-8 JSON, or not a record of a log
                raise FormatError(f"{path}, line {lineno}: {exc}") from exc
    if final_line is None:
        raise FormatError(f"{path}, line {lineno + 1}: the log ends without a final record")
    return log


def run_cells(
    pretrained: ParameterSet,
    slots: list,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    donor: ParameterSet | None = None,
    eval_data: LabeledBatch | None = None,
) -> list:
    """Fine-tune every slot on the target data, in as few stacks as TAW allows.

    ``slots`` are ``(seed, strategy, schedule)`` triples; a slot without a
    schedule is direct fine-tuning (DFT).  Every slot trains N =
    ``cfg.updates`` updates at ``cfg``'s learning rate and batch size, drawing
    its minibatches from its own ``default_rng(seed)`` stream; ``cfg.seed``
    is not read.  A wave of slots advances as one
    :class:`~pada.trainer.ModelStack` with one minibatch per seed.  Wave 1
    holds the DFT, TAG and CD-TAW slots.  Wave 2 holds the TAW slots, whose
    initial masks rank their seed's DFT model: this function hands wave 2
    the DFT models, adding to wave 1, unscored and unreturned, one for a
    seed without a DFT slot.  TAG and CD-TAW rank models no seed changes,
    so their slots with the same strategy and r1 share one initial mask,
    ranked once for all seeds; TAW slots share theirs within a seed.  The
    stack stops at every prune point of its slots, where each slot that
    prunes there is re-ranked and zeroed.

    Every input failure raises before the first update: data ``pretrained``
    cannot train on, a schedule :func:`validate` refuses for N, or inputs
    :func:`~pada.strategies.initial_model` refuses, such as a donor of
    another layout.  Returns one finished run per slot, in order: ``(model,
    log, initial mask)``, where the log holds the prune events (a DFT slot
    has neither events nor mask) and the final record, which this function
    builds once the wave's stack is released, scoring ``eval_data`` when
    given; or the divergence that ended the slot, which never stops the others.
    """
    if not isinstance(target_data, LabeledBatch):
        raise ValueError("fine-tuning on the target requires a LabeledBatch")
    check_data(pretrained, target_data)
    if eval_data is not None:
        if not isinstance(eval_data, LabeledBatch):
            raise ValueError("evaluation requires a LabeledBatch")
        check_data(pretrained, eval_data)
    for sched in dict.fromkeys(sched for _, _, sched in slots if sched is not None):
        validate(sched, cfg.updates)
    taw_seeds = dict.fromkeys(seed for seed, strategy, _ in slots if strategy == "TAW")
    dft_seeds = {seed for seed, _, sched in slots if sched is None}
    hidden = [(seed, "DFT", None) for seed in taw_seeds if seed not in dft_seeds]
    outcomes: list = [None] * len(slots)
    ranked: dict = {}  # seed -> its DFT model, or the divergence that ended it
    for taw in (False, True):
        wave = [i for i, (_, strategy, _) in enumerate(slots) if (strategy == "TAW") == taw]
        work = [slots[i] for i in wave] + ([] if taw else hidden)
        runs = _run_wave(pretrained, work, target_data, cfg, donor, ranked)
        for (seed, _, sched), run in zip(work, runs):
            if sched is None:  # a DFT model, which its seed's TAW slots rank
                ranked[seed] = run if isinstance(run, Exception) else run[0]
        for i, run in zip(wave, runs):  # its stack is released; hidden DFTs are not scored
            if not isinstance(run, Exception):
                run[1].final = _final_record(slots[i], run[0], cfg, target_data, eval_data)
            outcomes[i] = run
    return outcomes


@dataclass
class _Member:
    """One slot of a wave: where it starts and what it has logged so far."""

    slot: int  # index into the wave's slots
    seed: int
    start: ParameterSet
    log: PadaRunLog
    mask: Mask | None
    points: list  # pending (update, rate) prune points, in order


def _run_wave(pretrained, slots, target_data, cfg, donor, ranked) -> list:
    """Train ``slots`` as one stack; return each one's ``(model, log, mask)`` or its divergence.

    ``ranked`` maps a seed to the model its TAW masks rank, or to the
    divergence that ended it, which ends them too.  The logs hold only prune
    events.  A strategy that refuses its inputs raises before anything trains.
    """
    runs: list = [None] * len(slots)
    starts = {}  # mask key -> (zeroed model, mask, update-0 event)
    members = []
    for i, (seed, strategy, sched) in enumerate(slots):
        if sched is None:
            members.append(_Member(i, seed, pretrained, PadaRunLog(), None, []))
            continue
        if isinstance(ranked.get(seed), Exception):  # the model TAW ranks diverged
            runs[i] = ranked[seed]
            continue
        r1 = sched.rates[0]
        key = (strategy, r1, seed) if strategy == "TAW" else (strategy, r1)
        if key not in starts:
            model, mask = initial_model(
                pretrained, strategy, r1, finetuned=ranked.get(seed), donor=donor
            )
            event = _prune_event(0, r1, sparsity(pretrained), model, target_data)
            starts[key] = (model, mask, event)
        model, mask, event = starts[key]
        # rates[k] prunes at update k*n while k*n <= N; rates[0] was the strategy's
        points = [
            (k * sched.interval, rate)
            for k, rate in enumerate(sched.rates)
            if 0 < k and k * sched.interval <= cfg.updates
        ]
        members.append(_Member(i, seed, model, PadaRunLog([event]), mask, points))
    if not members:
        return runs

    stack = ModelStack.of([m.start for m in members], "cross_entropy")
    gens = {seed: np.random.default_rng(seed) for seed in dict.fromkeys(m.seed for m in members)}
    rngs = [gens[m.seed] for m in members]
    done = 0
    alive = list(enumerate(members))  # (stack slot, member) pairs not yet diverged
    while done < cfg.updates and alive:
        stop = min([m.points[0][0] for _, m in alive if m.points] + [cfg.updates])
        stack.train(target_data, cfg, stop - done, rngs, step_offset=done)
        done = stop
        alive = [(j, m) for j, m in alive if j not in stack.diverged]
        for j, m in alive:
            if m.points and m.points[0][0] == done:
                _, rate = m.points.pop(0)
                model = stack.model(j, pretrained, "adapted")
                before = sparsity(model)
                model = apply_zeroing(model, compute_ump_mask(model, rate, source="in-loop"))
                m.log.events.append(_prune_event(done, rate, before, model, target_data))
                stack.set(j, model)
    for j, step in stack.diverged.items():
        runs[members[j].slot] = TrainingDivergedError(step)
    for j, m in alive:
        role = "finetuned_target" if m.mask is None else "adapted"
        runs[m.slot] = (stack.model(j, pretrained, role), m.log, m.mask)
    return runs


def _result(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[:2]


def run_pada(
    pretrained: ParameterSet,
    strategy: str,
    sched: PruneSchedule,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    donor: ParameterSet | None = None,
    eval_data: LabeledBatch | None = None,
) -> tuple[ParameterSet, PadaRunLog]:
    """Prune-assisted fine-tuning: strategy prune at update 0, then train to N.

    The one-cell call of :func:`run_cells`, for seed ``cfg.seed``.  N is
    ``cfg.updates``.  ``strategy`` is a kind from
    :data:`~pada.strategies.STRATEGY_KINDS`; its initial mask prunes at the
    schedule's first rate r1.  Event i lands at update i*n while rates remain
    and i*n <= N; the logged "train_loss" is the loss over the full target
    labeled set at that point.  Returns the adapted model (no persistent
    mask) and the finished run log.  TAW ranks the seed's DFT model, as
    :func:`run_dft` trains it, and CD-TAW ``donor``.  The initial
    mask is :func:`~pada.strategies.initial_model`'s for the same pretrained
    model, strategy and r1.
    """
    slot = (cfg.seed, strategy, sched)
    return _result(run_cells(pretrained, [slot], target_data, cfg, donor, eval_data)[0])


def run_dft(
    pretrained: ParameterSet,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    eval_data: LabeledBatch | None = None,
) -> tuple[ParameterSet, PadaRunLog]:
    """Direct fine-tuning baseline: cfg.updates SGD steps, no pruning at all.

    The one-cell call of :func:`run_cells`, for seed ``cfg.seed``.
    """
    slot = (cfg.seed, "DFT", None)
    return _result(run_cells(pretrained, [slot], target_data, cfg, eval_data=eval_data)[0])


def _prune_event(update, rate, sparsity_before, model, target_data) -> PruneEvent:
    """The log record of a prune event that has just zeroed ``model``."""
    after = sparsity(model)
    loss = dataset_loss(model, target_data)
    return PruneEvent(update, rate, sparsity_before, after, loss)


def _final_record(slot, model, cfg, target_data, eval_data) -> dict:
    """The "final" log record of a slot's trained model (key order is the file format)."""
    seed, strategy, sched = slot
    final = {
        "total_updates": cfg.updates,
        "strategy": strategy,
        "frequency": "-" if sched is None else sched.freq,
        "final_sparsity": sparsity(model) if model.d_prunable else 0.0,
        "train_loss": dataset_loss(model, target_data),
    }
    if eval_data is not None:
        final["error_rate"] = evaluate(model, eval_data)
    final["seed"] = seed
    return final
