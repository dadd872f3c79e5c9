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

One executor, :func:`run_cells`, runs every cell of a seed.  All cells draw
the same minibatches from ``default_rng(seed)``, so a wave of cells trains
as one :class:`~pada.trainer.ModelStack` that stops at each of its cells'
prune points.  TAW ranks the seed's DFT model, so the TAW cells form a second
wave after the DFT, TAG and CD-TAW cells.  :func:`run_pada` and
:func:`run_dft` are one-cell calls of the same executor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

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


def read_log_jsonl(path: str) -> PadaRunLog:
    """Inverse of :func:`write_log_jsonl`; anything else is a FormatError naming the line."""
    log = PadaRunLog()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                kind = rec.pop("kind", None) if isinstance(rec, dict) else None
                if kind == "prune":
                    log.events.append(PruneEvent(**rec))
                elif kind == "final":
                    log.final = rec
                else:
                    raise FormatError(f"{path}, line {lineno}: unknown record kind {kind!r}")
            except (ValueError, TypeError) as exc:  # not JSON, or other prune fields
                raise FormatError(f"{path}, line {lineno}: {exc}") from exc
    return log


def run_cells(
    pretrained: ParameterSet,
    cells: list,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    donor: ParameterSet | None = None,
    finetuned: ParameterSet | None = None,
) -> list:
    """Fine-tune every cell of one seed on the target data, in as few stacks as TAW allows.

    ``cells`` are ``(strategy, schedule)`` pairs; a pair without a schedule
    is direct fine-tuning (DFT).  Every cell trains N = ``cfg.updates``
    updates from its own ``default_rng(cfg.seed)`` stream, so all cells draw
    the same minibatches and a wave of cells advances as one
    :class:`~pada.trainer.ModelStack`.  Wave 1 holds the DFT, TAG and CD-TAW
    cells.  Wave 2 holds the TAW cells, whose initial masks rank
    ``finetuned`` or, when that is None, wave 1's DFT model.  Cells with the
    same strategy and r1 share one initial mask, ranked once.  The stack
    stops at every prune point of its cells, where each cell that prunes
    there is re-ranked and zeroed.

    Returns one entry per cell, in order: ``(model, log, initial mask)``,
    where the log holds the prune events (a DFT cell has neither events nor
    mask), or the exception that ended the cell.  A failing cell, such as one
    that diverges, never stops the others.
    """
    try:
        if not isinstance(target_data, LabeledBatch):
            raise ValueError("fine-tuning on the target requires a LabeledBatch")
        check_data(pretrained, target_data)
    except ValueError as exc:
        return [exc] * len(cells)
    outcomes: list = [None] * len(cells)
    wave1 = [i for i, (strategy, _) in enumerate(cells) if strategy != "TAW"]
    wave2 = [i for i, (strategy, _) in enumerate(cells) if strategy == "TAW"]
    _run_wave(pretrained, cells, wave1, target_data, cfg, outcomes, donor, finetuned)
    if wave2:
        if finetuned is None:
            dft = next((outcomes[i] for i in wave1 if cells[i][1] is None), None)
            if isinstance(dft, Exception):  # the model TAW ranks was never finished
                for i in wave2:
                    outcomes[i] = dft
                return outcomes
            finetuned = dft[0] if dft is not None else None
        _run_wave(pretrained, cells, wave2, target_data, cfg, outcomes, donor, finetuned)
    return outcomes


@dataclass
class _Member:
    """One cell of a wave: where it starts and what it has logged so far."""

    cell: int  # index into the executor's cells
    start: ParameterSet
    log: PadaRunLog
    mask: Mask | None
    points: list  # pending (update, rate) prune points, in order


def _run_wave(pretrained, cells, wave, target_data, cfg, outcomes, donor, finetuned) -> None:
    """Train the cells ``wave`` indexes as one stack; store each outcome in ``outcomes``."""
    n_total = cfg.updates
    starts = {}  # (strategy, r1) -> (zeroed model, mask, update-0 event)
    members = []
    for i in wave:
        strategy, sched = cells[i]
        if sched is None:
            members.append(_Member(i, pretrained, PadaRunLog(), None, []))
            continue
        try:
            validate(sched, n_total)
            r1 = sched.rates[0]
            if (strategy, r1) not in starts:
                model, mask = initial_model(
                    pretrained, strategy, r1, finetuned=finetuned, donor=donor
                )
                event = _prune_event(0, r1, sparsity(pretrained), model, target_data)
                starts[strategy, r1] = (model, mask, event)
        except Exception as exc:
            outcomes[i] = exc
            continue
        model, mask, event = starts[strategy, r1]
        # rates[k] prunes at update k*n while k*n <= N; rates[0] was the strategy's
        points = [
            (k * sched.interval, rate)
            for k, rate in enumerate(sched.rates)
            if 0 < k and k * sched.interval <= n_total
        ]
        members.append(_Member(i, model, PadaRunLog([event]), mask, points))
    if not members:
        return

    stack = ModelStack.of([m.start for m in members], "cross_entropy")
    rng = np.random.default_rng(cfg.seed)
    done = 0
    while done < n_total and stack.ids:
        stop = min([members[j].points[0][0] for j in stack.ids if members[j].points] + [n_total])
        stack.train(target_data, cfg, stop - done, rng, step_offset=done)
        done = stop
        for j in stack.ids:
            m = members[j]
            if m.points and m.points[0][0] == done:
                _, rate = m.points.pop(0)
                model = stack.model(j, pretrained, "adapted")
                before = sparsity(model)
                model = apply_zeroing(model, compute_ump_mask(model, rate, source="in-loop"))
                m.log.events.append(_prune_event(done, rate, before, model, target_data))
                stack.set(j, model)
    for j, step in stack.diverged.items():
        outcomes[members[j].cell] = TrainingDivergedError(step)
    for j in stack.ids:
        m = members[j]
        role = "finetuned_target" if cells[m.cell][1] is None else "adapted"
        outcomes[m.cell] = (stack.model(j, pretrained, role), m.log, m.mask)


def _result(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_pada(
    pretrained: ParameterSet,
    strategy: str,
    sched: PruneSchedule,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    donor: ParameterSet | None = None,
    finetuned: ParameterSet | None = None,
    eval_data: LabeledBatch | None = None,
) -> tuple[ParameterSet, PadaRunLog]:
    """Prune-assisted fine-tuning: strategy prune at update 0, then train to N.

    The one-cell call of :func:`run_cells`.  N is ``cfg.updates``.
    ``strategy`` is a kind from :data:`~pada.strategies.STRATEGY_KINDS`; its
    initial mask prunes at the schedule's first rate r1.  Event i lands at
    update i*n while rates remain and i*n <= N; the logged "train_loss" is
    the loss over the full target labeled set at that point.  Returns the
    adapted model (no persistent mask) and the run log.
    TAW ranks ``finetuned`` (the target fine-tuned model), CD-TAW ``donor``.
    The initial mask is :func:`~pada.strategies.initial_model`'s for the same
    pretrained model, strategy and r1.
    """
    (outcome,) = run_cells(
        pretrained, [(strategy, sched)], target_data, cfg, donor=donor, finetuned=finetuned
    )
    model, log, _ = _result(outcome)
    log.final = final_record(model, cfg.updates, strategy, sched.freq, target_data, eval_data)
    return model, log


def run_dft(
    pretrained: ParameterSet,
    target_data: LabeledBatch,
    cfg: TrainConfig,
    eval_data: LabeledBatch | None = None,
) -> tuple[ParameterSet, PadaRunLog]:
    """Direct fine-tuning baseline: cfg.updates SGD steps, no pruning at all.

    The one-cell call of :func:`run_cells`.
    """
    (outcome,) = run_cells(pretrained, [("DFT", None)], target_data, cfg)
    model, log, _ = _result(outcome)
    log.final = final_record(model, cfg.updates, "DFT", "-", target_data, eval_data)
    return model, log


def _prune_event(update, rate, sparsity_before, model, target_data) -> PruneEvent:
    """The log record of a prune event that has just zeroed ``model``."""
    after = sparsity(model)
    loss = dataset_loss(model, target_data)
    return PruneEvent(update, rate, sparsity_before, after, loss)


def final_record(model, total_updates, strategy, freq, target_data, eval_data) -> dict:
    """The "final" log record of a trained model (key order is the file format)."""
    final = {
        "total_updates": total_updates,
        "strategy": strategy,
        "frequency": freq,
        "final_sparsity": sparsity(model) if model.d_prunable else 0.0,
        "train_loss": dataset_loss(model, target_data),
    }
    if eval_data is not None:
        final["error_rate"] = evaluate(model, eval_data)
    return final
