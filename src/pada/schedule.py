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
slot for the whole wave, unread once it diverges.  A cell's initial mask
ranks the model :data:`~pada.pruning.RANKED_MODEL` names for its strategy,
and the cells whose masks rank their seed's DFT model (TAW) form a second
wave, ranked from the first wave's DFT models.  A wave only trains the
starts it is given; its runs are scored once it has released its stack.
Nothing else reads another cell, so a seed's DFT and second-wave cells, and
its other cells, are units that :func:`run_cells` may train apart: it checks
every input and ranks the seed-independent masks first, then trains
contiguous blocks of units at once, one per usable CPU and 2 at most, the
first in its own process and the other in a forked worker.  :func:`run_pada`
and :func:`run_dft` are one-cell calls of the same executor.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

import numpy as np

from .params import FormatError, ParameterSet, atomic_write_text
from .pruning import RANKED_MODEL, Mask, apply_zeroing, compute_ump_mask, sparsity
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
_KIND = {int: "a non-negative integer", float: "a finite number"}
_FIELDS = {
    "prune": {name: _KIND[tp] for name, tp in get_type_hints(PruneEvent).items()},
    "final": {
        "total_updates": "a non-negative integer",
        "strategy": "a string",
        "frequency": "a string",
        "final_sparsity": "a finite number",
        "train_loss": "a finite number",
        "error_rate": "a number in [0, 1]",  # a fraction of the evaluation rows
        "seed": "a non-negative integer",
    },
}
_IS = {
    "a string": lambda v: type(v) is str,
    "a finite number": lambda v: type(v) is int or type(v) is float and math.isfinite(v),
    "a number in [0, 1]": lambda v: type(v) in (int, float) and 0 <= v <= 1,  # so not NaN
    "a non-negative integer": lambda v: type(v) is int and v >= 0,
}


def _check_record(kind: str, rec: dict) -> None:
    """Raise ValueError unless the ``kind`` record ``rec`` has each field, of its type, and no other."""
    unknown = rec.keys() - _FIELDS[kind].keys()
    if unknown:
        raise ValueError(f"{kind} record has an unknown field {min(unknown)!r}")
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
                if kind not in ("prune", "final"):
                    raise ValueError(f"unknown record kind {kind!r}")
                _check_record(kind, rec)
                if final_line is not None:
                    raise ValueError(f"{kind} record after the final record of line {final_line}")
                if kind == "prune":
                    log.events.append(PruneEvent(**rec))
                else:
                    log.final, final_line = rec, lineno
            except ValueError as exc:  # not UTF-8 JSON, or not a record of a log
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
    """Fine-tune every slot on the target data, in as few stacks as the ranked models allow, on up to 2 CPUs.

    ``slots`` are ``(seed, strategy, schedule)`` triples; a slot without a
    schedule is direct fine-tuning (DFT).  Every slot trains N =
    ``cfg.updates`` updates at ``cfg``'s learning rate and batch size, drawing
    its minibatches from its own ``default_rng(seed)`` stream; ``cfg.seed``
    is not read.  A wave of slots advances as one
    :class:`~pada.trainer.ModelStack` with one minibatch per seed, stopping
    at every prune point of its slots to re-rank and zero each slot that
    prunes there.  A slot's initial mask ranks the model
    :data:`~pada.pruning.RANKED_MODEL` names for its strategy.  A mask that
    ranks no DFT model is ranked here, before anything trains, once per
    strategy and r1 for all seeds.  The slots whose masks rank their seed's
    DFT model form wave 2, ranked once per seed, strategy and r1 from wave
    1's DFT models; wave 1 adds, unscored and unreturned, the DFT model of a
    seed without a DFT slot.  A seed's chain (its DFT model and wave-2
    slots) and its other slots are units that share only read-only inputs:
    :func:`_blocks` cuts them into one block per usable CPU, 2 at most, and
    each block runs both waves and scores its runs, the first here and the
    other in a forked worker, at once.  A run's bits do not depend on its block.

    Every input failure raises before the first update: data ``pretrained``
    cannot train on, a schedule :func:`validate` refuses for N, or inputs
    :func:`~pada.strategies.initial_model` refuses, such as a donor of
    another layout.  Returns one finished run per slot, in order: ``(model,
    log, initial mask)``, where the log holds the prune events (a DFT slot
    has neither events nor mask) and the final record, which a block builds
    once the wave's stack is released, scoring ``eval_data`` when given; or
    the divergence that ended the slot, which never stops the others.
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
    first = [slot for slot in slots if slot[2] is not None and not _ranks_dft(slot)]
    starts = _rank_starts(pretrained, first, target_data, donor=donor)

    def run_block(block):
        return _run_block(pretrained, [slots[i] for i in block], target_data, cfg, starts, eval_data)

    blocks = _blocks(slots, _workers())
    outcomes: list = [None] * len(slots)
    for block, runs in zip(blocks, _in_workers(run_block, blocks)):
        for i, run in zip(block, runs):
            outcomes[i] = run
    return outcomes


def _ranks_dft(slot) -> bool:
    """Whether ``slot``'s initial mask ranks its seed's DFT model, so that it trains after that model."""
    return slot[2] is not None and RANKED_MODEL.get(slot[1]) == "dft"


def _workers() -> int:
    """How many blocks :func:`run_cells` may train at once: the CPUs this process may use, at most 2.

    Only 2 blocks have been measured; more would also cut every stack shorter.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(2, cpus)


def _blocks(slots: list, workers: int) -> list:
    """Cut the slots' indices into 1 block of whole units, or 2 if ``workers`` > 1, balanced by slot count.

    A seed has two units: its chain (its DFT slot and the slots whose masks
    rank its DFT model) and its other slots.  The units keep the plan order
    of their first slots; the cut is the unit boundary nearest half the slots.
    """
    units: dict = {}
    for i, slot in enumerate(slots):
        units.setdefault((slot[0], slot[2] is None or _ranks_dft(slot)), []).append(i)
    units = list(units.values())
    if workers < 2 or len(units) < 2:
        return [sorted(i for unit in units for i in unit)]
    ends = list(itertools.accumulate(len(unit) for unit in units))
    cut = min(range(1, len(units)), key=lambda c: abs(ends[c - 1] - ends[-1] / 2))
    return [sorted(i for unit in part for i in unit) for part in (units[:cut], units[cut:])]


def _in_workers(work, blocks: list) -> list:
    """``[work(block) for block in blocks]`` for 1 or 2 blocks: the first here, the second in a forked worker.

    The worker pickles its result, or what it raised, into a pipe and ends
    with ``os._exit``; it is reaped before this returns or raises, killed
    first if this process failed.  Its exception is raised here, and its end
    without a reply is a :class:`RuntimeError`: a fault of pada, not of its inputs.
    """
    if len(blocks) == 1:
        return [work(blocks[0])]
    read, write = os.pipe()
    # fork, not spawn: a spawned worker starts Python and imports numpy and
    # pada again, which takes longer than a one-seed grid trains
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _serve(write, work, blocks[1])
    os.close(write)
    reply = None
    try:
        with os.fdopen(read, "rb") as pipe:
            mine = work(blocks[0])
            reply = pipe.read()
    finally:
        if reply is None:
            os.kill(pid, signal.SIGKILL)
        end = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if end != 0:
        how = f"killed by signal {-end}" if end < 0 else f"exit code {end}"
        raise RuntimeError(f"a training worker ended without its runs ({how})")
    ok, theirs = pickle.loads(reply)
    if not ok:
        raise theirs
    return [mine, theirs]


def _serve(write: int, work, block) -> None:
    """In a forked worker: send ``work(block)``, or what it raised, through ``write``, then exit."""
    code = 1
    try:
        try:
            reply = (True, work(block))
        except BaseException as exc:  # the parent raises it
            reply = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_block(pretrained, slots, target_data, cfg, starts, eval_data) -> list:
    """Train a block of whole units in two waves; return each slot's scored run or its divergence.

    ``starts`` maps each slot whose mask ranks no DFT model to its start.
    Wave 2's starts are ranked from wave 1's DFT models, hidden ones too,
    which are not scored.  Each wave's runs are scored once its stack is released.
    """
    in_wave2 = [_ranks_dft(slot) for slot in slots]
    dft_seeds = {seed for seed, _, sched in slots if sched is None}
    ranking = dict.fromkeys(slot[0] for slot, later in zip(slots, in_wave2) if later)
    hidden = [(seed, "DFT", None) for seed in ranking if seed not in dft_seeds]
    outcomes: list = [None] * len(slots)
    dft: dict = {}  # seed -> its DFT model, or the divergence that ended it
    for wave2 in (False, True):
        wave = [i for i, later in enumerate(in_wave2) if later == wave2]
        work = [slots[i] for i in wave] + ([] if wave2 else hidden)
        if wave2:
            starts = _rank_starts(pretrained, work, target_data, dft=dft)
        runs = _run_wave(pretrained, work, [starts.get(slot) for slot in work], target_data, cfg)
        for (seed, _, sched), run in zip(work, runs):
            if sched is None:
                dft[seed] = run if isinstance(run, Exception) else run[0]
        for i, run in zip(wave, runs):  # its stack is released; hidden DFTs are not scored
            if not isinstance(run, Exception):
                run[1].final = _final_record(slots[i], run[0], cfg, target_data, eval_data)
            outcomes[i] = run
    return outcomes


def _rank_starts(pretrained, slots, target_data, donor=None, dft=None) -> dict:
    """Map each pruning slot to its start: the model its strategy zeroes at r1, its mask and its update-0 event.

    Slots of one strategy and r1 share one start, and of one seed too if
    their masks rank its DFT model: ``dft`` maps the seed to that model, or
    to the divergence that ended it, which is then their start and ends them.
    """
    starts, by_key = {}, {}
    for slot in slots:
        seed, strategy, sched = slot
        r1 = sched.rates[0]
        key = (strategy, r1, seed) if _ranks_dft(slot) else (strategy, r1)
        finetuned = dft.get(seed) if dft else None
        if isinstance(finetuned, Exception):
            by_key[key] = finetuned
        elif key not in by_key:
            model, mask = initial_model(pretrained, strategy, r1, finetuned=finetuned, donor=donor)
            by_key[key] = model, mask, _prune_event(0, r1, sparsity(pretrained), model, target_data)
        starts[slot] = by_key[key]
    return starts


@dataclass
class _Member:
    """One slot of a wave: where it starts and what it has logged so far."""

    slot: int  # index into the wave's slots
    seed: int
    start: ParameterSet
    log: PadaRunLog
    mask: Mask | None
    points: list  # pending (update, rate) prune points, in order


def _run_wave(pretrained, slots, starts, target_data, cfg) -> list:
    """Train ``slots`` as one stack from ``starts``; return each one's ``(model, log, mask)`` or its divergence.

    A slot's start is :func:`_rank_starts`'s, which may be the divergence that
    ends it untrained, or None for a DFT slot.  The logs hold only prune events.
    """
    runs: list = [None] * len(slots)
    members = []
    for i, ((seed, _, sched), start) in enumerate(zip(slots, starts)):
        if isinstance(start, Exception):  # the model its mask ranks diverged
            runs[i] = start
        elif start is None:
            members.append(_Member(i, seed, pretrained, PadaRunLog(), None, []))
        else:
            model, mask, event = start
            # rates[k] prunes at update k*n while k*n <= N; rates[0] was the strategy's
            points = [(k * sched.interval, rate) for k, rate in enumerate(sched.rates)
                      if 0 < k and k * sched.interval <= cfg.updates]
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
    mask) and the finished run log.  The initial mask is
    :func:`~pada.strategies.initial_model`'s for the same pretrained model,
    strategy and r1, ranking ``donor`` or the DFT model :func:`run_dft` trains.
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
