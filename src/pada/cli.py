"""Experiment harness CLI.

Subcommands: pretrain, make-donor, run, compare-masks, report.  Each is
deterministic given its config file and inputs, claims its outputs
(:func:`_claim`) before it loads an input, and writes them atomically.  ``run``
plans every run, seed by seed in table order, refuses any file a ``pada run``
writes and the aggregates a ``pada report`` made of an earlier table
(``--force`` removes them once :func:`~pada.schedule.run_cells` has finished
every run), then writes its table last: a run that fails to train writes
nothing, and a directory holding ``table.json`` holds one finished run.
Inputs come before training: ``make-donor`` and ``run`` refuse a checkpoint
unlike the config's ``arch`` as they load it, and of the runs that diverge, the
first in table order, seed by seed, is named, as if the cells had run one after
another.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import fields
from operator import attrgetter, itemgetter

from .config import ConfigError, ExperimentConfig, load_config
from .data import gen_domain_shift
from .metrics import layerwise_report, report_to_csv, report_to_json
from .params import (
    Fields,
    FormatError,
    NonNegativeInt,
    ParameterSet,
    StructureMismatchError,
    load_checkpoint,
    read_json,
    save_checkpoint,
    structural_mismatch,
    write_csv,
    write_json,
)
from .pruning import load_mask, save_mask
from .schedule import FREQUENCIES, PruneEvent, read_log_jsonl, run_cells, write_log_jsonl
from .strategies import RANKED_MODEL, STRATEGY_KINDS
from .trainer import TrainingDivergedError, finetune_supervised, model_layout, pretrain_denoising


# the stage checkpoints under ``out``; a donor fine-tuned elsewhere goes at <out>/donor.pada
_PRETRAINED, _DONOR = "pretrained.pada", "donor.pada"


def _cell_name(strategy: str, freq: str, seed: int) -> str:
    if strategy == "DFT":
        return f"dft_seed{seed}"
    return f"{strategy.lower()}_{freq}_seed{seed}"


# what `pada report` writes; a forced `pada run` removes them from its `out` with its own files
_AGGREGATES = ("events.csv", "summary.json")

# the name of any file `pada run` writes under runs/, whatever the plan
_RUN_FILE = re.compile(
    r"(?:dft|(?:%s)_(?:%s))_seed[0-9]+\.(?:jsonl|pada|padm)"
    % ("|".join(re.escape(kind.lower()) for kind in STRATEGY_KINDS), "|".join(FREQUENCIES))
)


def _claim(out_dir: str, names, force: bool) -> list[str]:
    """Paths ``names`` under ``out_dir``, refused before any work if the first existing path at
    or above ``out_dir`` is not a directory, if one of them exists but is not a file, or unless
    ``force`` if one of them exists."""
    top = out_dir
    while top and not os.path.lexists(top):
        top = os.path.dirname(top)  # "" is the working directory
    if top and not os.path.isdir(top):
        raise NotADirectoryError(f"cannot write {top}: not a directory")
    paths = [os.path.join(out_dir, name) for name in names]
    taken = [path for path in paths if os.path.exists(path)]
    for path in taken:
        if not os.path.isfile(path):
            raise OSError(f"cannot write {path}: not a file")
    if taken and not force:
        raise ConfigError(f"output exists: {taken[0]} (use --force to overwrite)")
    return paths


def _write_stage(cfg: ExperimentConfig, force: bool, name: str, train) -> str:
    """Write ``train(task)``'s checkpoint to ``name`` under the output directory."""
    [out_path] = _claim(cfg.out, [name], force)
    # the task draws nothing until a split is read, so ``train`` may load its inputs first
    model = train(gen_domain_shift(cfg.task_seed, cfg.task))
    os.makedirs(cfg.out, exist_ok=True)  # only now, so a refused input leaves no directory
    save_checkpoint(model, out_path)
    return out_path


def cmd_pretrain(cfg: ExperimentConfig, force: bool = False) -> str:
    """Denoising pre-training on the source unlabeled split; writes a checkpoint."""
    return _write_stage(cfg, force, _PRETRAINED, lambda task: pretrain_denoising(
        cfg.arch, task.source_unlabeled, cfg.pretrain))


def _load_model(cfg: ExperimentConfig, name: str) -> ParameterSet:
    """Checkpoint ``name`` under ``cfg.out``, refused unless a tanh model of ``cfg.arch``."""
    path = os.path.join(cfg.out, name)
    model = load_checkpoint(path)
    if "activation" not in model.meta:  # the trainer writes it, so no default is invented
        raise FormatError(f"{path}: no activation metadata")
    problem = structural_mismatch(model_layout(cfg.arch), model)
    if problem is None and model.meta["activation"] != "tanh":
        problem = f"activation 'tanh' vs {model.meta['activation']!r}"
    if problem is not None:
        raise StructureMismatchError(f"{path}: not a model of the config's arch: {problem}")
    return model


def cmd_make_donor(cfg: ExperimentConfig, force: bool = False) -> str:
    """Fine-tune the pretrained checkpoint on source labels; writes the donor."""
    return _write_stage(cfg, force, _DONOR, lambda task: finetune_supervised(
        _load_model(cfg, _PRETRAINED), task.source_labeled, cfg.donor, "finetuned_donor"))


def _errors_by_cell(finals) -> dict[tuple[str, str], dict[int, float]]:
    """Final error rates of the runs, grouped by (strategy, frequency), keyed by seed."""
    cells: dict[tuple[str, str], dict[int, float]] = {}
    for fin in finals:
        cells.setdefault((fin["strategy"], fin["frequency"]), {})[fin["seed"]] = fin["error_rate"]
    return cells


def _mean_error(by_seed: dict[int, float]) -> float:
    """Mean error of one cell, summed in ascending seed order.

    ``table.*`` and ``summary.json`` both take their means from here, so they
    agree to the last bit whatever order the runs were found in.
    """
    return sum(by_seed[s] for s in sorted(by_seed)) / len(by_seed)


def cmd_run(cfg: ExperimentConfig, force: bool = False) -> tuple[str, str]:
    """Execute the configured strategy/frequency grid over every seed.

    Writes one .jsonl log, one final .pada checkpoint and (for PADA cells)
    the initial .padm mask per run, plus the comparison table as CSV + JSON,
    once every run has finished.  It refuses to start over table.*, the
    ``_AGGREGATES`` of ``pada report`` or any file ``_RUN_FILE`` names under
    runs/; with ``force`` it removes them first.
    """
    run_dir = os.path.join(cfg.out, "runs")
    cells = cfg.cells()
    stems, slots = [], []  # every run, seed by seed in table order: its files' stem, its slot
    for seed in cfg.seeds:
        for strategy, freq in cells:
            stems.append(os.path.join(run_dir, _cell_name(strategy, freq, seed)))
            slots.append((seed, strategy, cfg.schedules.get(freq)))
    # the files of this plan's runs, and each run file of any plan
    names = {os.path.basename(stem) + ext for stem, (_, _, sched) in zip(stems, slots)
             for ext in (".jsonl", ".pada", ".padm")[: 2 if sched is None else 3]}
    if os.path.isdir(run_dir):  # _claim refuses a runs file
        names.update(name for name in filter(_RUN_FILE.fullmatch, os.listdir(run_dir))
                     if os.path.isfile(os.path.join(run_dir, name)))
    # table.*, then report's aggregates of an earlier table, then runs/ sorted
    run_files = _claim(cfg.out, ["table.csv", "table.json", *_AGGREGATES], force)
    run_files += _claim(run_dir, sorted(names), force)
    table_csv, table_json = run_files[:2]

    pretrained = _load_model(cfg, _PRETRAINED)
    ranks = {RANKED_MODEL.get(strategy) for strategy, _ in cells}
    donor = _load_model(cfg, _DONOR) if "donor" in ranks else None
    task = gen_domain_shift(cfg.task_seed, cfg.task)
    # the config and both models fit one arch, so only training can fail here
    outcomes = run_cells(
        pretrained, slots, task.target_labeled, cfg.target, donor, eval_data=task.target_eval
    )
    for stem, outcome in zip(stems, outcomes):
        if isinstance(outcome, TrainingDivergedError):
            raise TrainingDivergedError(outcome.step, os.path.basename(stem)) from outcome

    by_cell = _errors_by_cell(log.final for _, log, _ in outcomes)
    rows = []
    for strategy, freq in cells:
        by_seed = by_cell[(strategy, freq)]
        rows.append(
            {
                "strategy": strategy,
                "frequency": freq,
                "mean_error": _mean_error(by_seed),
                "per_seed": [by_seed[seed] for seed in cfg.seeds],
            }
        )
    if force:  # table.* goes first, so no table stands over a partial sweep
        for path in filter(os.path.isfile, run_files):
            os.remove(path)
    os.makedirs(run_dir, exist_ok=True)
    for stem, (model, log, mask) in zip(stems, outcomes):
        if mask is not None:
            save_mask(mask, stem + ".padm")
        write_log_jsonl(log, stem + ".jsonl")
        save_checkpoint(model, stem + ".pada")
    write_csv(
        table_csv,
        ["strategy", "frequency", "mean_error"] + [f"seed_{s}" for s in cfg.seeds],
        [[row["strategy"], row["frequency"], row["mean_error"], *row["per_seed"]] for row in rows],
    )
    write_json(table_json, {"seeds": cfg.seeds, "rows": rows})
    return table_csv, table_json


def cmd_compare_masks(path_a: str, path_b: str, out_dir: str, force: bool = False):
    """IOU/MMA similarity report for two mask files (CSV + JSON)."""
    csv_path, json_path = _claim(out_dir, ["mask_report.csv", "mask_report.json"], force)
    try:
        report = layerwise_report(load_mask(path_a), load_mask(path_b))
    except ValueError as exc:  # misaligned or empty; name both files, which the masks do not know
        raise StructureMismatchError(f"{path_a} vs {path_b}: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)  # only now, so a refused mask leaves no directory
    report_to_csv(report, csv_path)
    report_to_json(report, json_path)
    return csv_path, json_path


_RUN_KEYS = ("strategy", "frequency", "seed")  # what names a run in its final record
# what `pada run` writes to table.json, and to each of its rows
_TABLE = Fields({"seeds": list[NonNegativeInt], "rows": list[dict]})
_ROW = Fields({"strategy": str, "frequency": str, "mean_error": float, "per_seed": list[float]})


def _listed_runs(table_json: str) -> list[tuple]:
    """Each listed run's (name, strategy, frequency, seed), sorted by name; or a FormatError."""
    try:
        table = _TABLE.read(read_json(table_json), name="the table")
        rows = [_ROW.read(row, f"rows[{i}]") for i, row in enumerate(table["rows"])]
    except ValueError as exc:
        raise FormatError(f"{table_json}: {exc}") from exc
    runs = [(row["strategy"], row["frequency"], s) for row in rows for s in table["seeds"]]
    listed = sorted((_cell_name(*run), *run) for run in runs)
    for name, *_ in listed:  # a strategy or frequency no `pada run` plans
        if not _RUN_FILE.fullmatch(name + ".jsonl"):
            raise FormatError(f"{table_json}: lists run {name!r}, which no `pada run` writes")
    for (name, *_), (next_name, *_) in zip(listed, listed[1:]):
        if name == next_name:  # a repeated row or seed would count its runs twice
            raise FormatError(f"{table_json}: lists run {name} twice")
    return listed


def cmd_report(run_out: str, out_dir: str | None = None) -> tuple[str, str]:
    """Aggregate the .jsonl logs of the runs ``table.json`` lists into plot-ready files."""
    table_json = os.path.join(run_out, "table.json")
    if not os.path.isfile(table_json):
        raise ConfigError(f"no table.json under {run_out} (not a finished `pada run`)")
    out_dir = out_dir or run_out
    # report rewrites its aggregates, so an existing one is no collision
    events_csv, summary_json = _claim(out_dir, _AGGREGATES, force=True)
    logs = []
    for name, *listed in _listed_runs(table_json):
        path = os.path.join(run_out, "runs", f"{name}.jsonl")
        if not os.path.exists(path):  # read_log_jsonl refuses one that is there but unreadable
            raise FormatError(f"{table_json}: lists run {name}, but {path} is missing")
        log = read_log_jsonl(path)
        found = [log.final[k] for k in _RUN_KEYS]
        if found != listed:
            raise FormatError(f"{path}: a log of run {found}, but table.json lists {listed}")
        logs.append((name, log))
    os.makedirs(out_dir, exist_ok=True)

    event_keys = [f.name for f in fields(PruneEvent)]
    run_of, event_of = itemgetter(*_RUN_KEYS), attrgetter(*event_keys)
    events = [[name, *run_of(log.final), *event_of(ev)] for name, log in logs for ev in log.events]
    write_csv(events_csv, ["run", *_RUN_KEYS, *event_keys], events)

    runs = [{"run": name, "final": log.final} for name, log in logs]
    by_cell = _errors_by_cell(log.final for _, log in logs)
    cells = [
        {
            "strategy": k[0],
            "frequency": k[1],
            "mean_error": _mean_error(v),
            "n_runs": len(v),
        }
        for k, v in sorted(by_cell.items())
    ]
    write_json(summary_json, {"cells": cells, "runs": runs})
    return events_csv, summary_json


# the one type that raises each category; anything else is a fault of pada itself
_CATEGORIES = {
    FormatError: "format",
    StructureMismatchError: "structure",
    TrainingDivergedError: "training",
    OSError: "io",
    ConfigError: "config",
}


def _category(exc: Exception) -> str:
    return next((name for kind, name in _CATEGORIES.items() if isinstance(exc, kind)), "internal")


@functools.cache  # one parser per process: building one costs more than a small subcommand
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pada", description="prune-assisted domain adaptation experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("pretrain", "denoising pre-training; writes the pretrained checkpoint"),
        ("make-donor", "source-domain fine-tuning; writes the donor checkpoint"),
        ("run", "run the strategy/frequency grid over all seeds"),
    ]:  # the config file sets everything else, the output directory included
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_cmp = sub.add_parser("compare-masks", help="IOU/MMA report for two .padm files")
    p_cmp.add_argument("mask_a")
    p_cmp.add_argument("mask_b")
    p_cmp.add_argument("--out", default=".", help="report output directory")
    p_cmp.add_argument("--force", action="store_true")

    p_rep = sub.add_parser("report", help="aggregate run logs into plot-ready CSV/JSON")
    p_rep.add_argument("run_out", help="output directory of a finished `pada run`")
    p_rep.add_argument("--out", default=None, help="where to write the aggregates")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in ("pretrain", "make-donor", "run"):
            cfg = load_config(args.config)
            if args.command == "pretrain":
                written = [cmd_pretrain(cfg, force=args.force)]
            elif args.command == "make-donor":
                written = [cmd_make_donor(cfg, force=args.force)]
            else:
                written = cmd_run(cfg, force=args.force)
        elif args.command == "compare-masks":
            written = cmd_compare_masks(args.mask_a, args.mask_b, args.out, force=args.force)
        else:
            written = cmd_report(args.run_out, args.out)
    except Exception as exc:  # single-line, machine-readable failure output
        print(f"{_category(exc)}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
