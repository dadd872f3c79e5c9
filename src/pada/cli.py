"""Experiment harness CLI.

Subcommands: pretrain, make-donor, run, compare-masks, report.  Every
subcommand is deterministic given its config file and inputs; outputs are
written atomically.  ``run`` trains the grid one seed at a time; all cells
of a seed train together in :func:`~pada.schedule.run_cells`.  The seed's
fine-tune on the target data is both the DFT cell's result and the model
TAW's masks rank.  When cells fail, ``run`` reports the first failing cell
in table order, as if the cells had run one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, ExperimentConfig, check_seeds, load_config
from .data import gen_domain_shift
from .metrics import layerwise_report, report_to_csv, report_to_json
from .params import (
    FormatError,
    StructureMismatchError,
    atomic_write_text,
    load_checkpoint,
    save_checkpoint,
)
from .pruning import load_mask, save_mask
from .schedule import (
    final_record,
    read_log_jsonl,
    run_cells,
    write_log_jsonl,
)
from .trainer import TrainingDivergedError, finetune_supervised, pretrain_denoising


class RunFailure(Exception):
    """A grid cell failed; the message carries the run identity."""


def _check_outputs(paths, force: bool) -> None:
    if force:
        return
    for p in paths:
        if os.path.exists(p):
            raise ConfigError(f"output exists: {p} (use --force to overwrite)")


def cmd_pretrain(cfg: ExperimentConfig, force: bool = False) -> str:
    """Denoising pre-training on the source unlabeled split; writes a checkpoint."""
    out_path = os.path.join(cfg.out, cfg.pretrained_file)
    _check_outputs([out_path], force)
    os.makedirs(cfg.out, exist_ok=True)
    task = gen_domain_shift(cfg.task_seed, cfg.task)
    ps = pretrain_denoising(cfg.arch, task.source_unlabeled, cfg.pretrain)
    save_checkpoint(ps, out_path)
    return out_path


def cmd_make_donor(cfg: ExperimentConfig, force: bool = False) -> str:
    """Fine-tune the pretrained checkpoint on source labels; writes the donor."""
    src = os.path.join(cfg.out, cfg.pretrained_file)
    out_path = os.path.join(cfg.out, cfg.donor_file)
    _check_outputs([out_path], force)
    os.makedirs(cfg.out, exist_ok=True)
    ps = load_checkpoint(src)
    task = gen_domain_shift(cfg.task_seed, cfg.task)
    donor = finetune_supervised(ps, task.source_labeled, cfg.donor, role="finetuned_donor")
    save_checkpoint(donor, out_path)
    return out_path


def _cell_name(strategy: str, freq: str, seed: int) -> str:
    if strategy == "DFT":
        return f"dft_seed{seed}"
    return f"{strategy.lower()}_{freq}_seed{seed}"


def _errors_by_cell(finals) -> dict[tuple[str, str], dict[int, float]]:
    """Final error rates of the runs, grouped by (strategy, frequency), keyed by seed."""
    cells: dict[tuple[str, str], dict[int, float]] = {}
    for fin in finals:
        if "error_rate" in fin:
            key = (fin.get("strategy"), fin.get("frequency"))
            cells.setdefault(key, {})[fin["seed"]] = fin["error_rate"]
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
    the initial .padm mask per cell, plus the comparison table as CSV + JSON.
    """
    run_dir = os.path.join(cfg.out, "runs")
    table_csv = os.path.join(cfg.out, "table.csv")
    table_json = os.path.join(cfg.out, "table.json")
    cells = cfg.cells()
    planned = [table_csv, table_json]
    for strategy, freq in cells:
        for seed in cfg.seeds:
            planned.append(os.path.join(run_dir, _cell_name(strategy, freq, seed) + ".jsonl"))
    _check_outputs(planned, force)
    os.makedirs(run_dir, exist_ok=True)

    pretrained = load_checkpoint(os.path.join(cfg.out, cfg.pretrained_file))
    donor = None
    if any(s == "CD-TAW" for s in cfg.strategies):
        donor = load_checkpoint(os.path.join(cfg.out, cfg.donor_file))
    task = gen_domain_shift(cfg.task_seed, cfg.task)
    # TAW ranks its seed's DFT model, so DFT trains even when the table leaves it out
    trained = cells if cfg.include_dft or "TAW" not in cfg.strategies else [("DFT", "-")] + cells
    plan = [(s, None if s == "DFT" else cfg.schedule_for(f)) for s, f in trained]

    finals = []
    for seed in cfg.seeds:
        tcfg = cfg.target_cfg(seed)
        outcomes = run_cells(pretrained, plan, task.target_labeled, tcfg, donor=donor)
        for (strategy, freq), outcome in zip(trained, outcomes):
            if strategy == "DFT" and not cfg.include_dft:
                continue
            name = _cell_name(strategy, freq, seed)
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                model, log, mask = outcome
                log.final = final_record(
                    model, tcfg.updates, strategy, freq, task.target_labeled, task.target_eval
                )
                log.final["seed"] = seed
                if mask is not None:
                    save_mask(mask, os.path.join(run_dir, f"{name}.padm"))
                write_log_jsonl(log, os.path.join(run_dir, f"{name}.jsonl"))
                save_checkpoint(model, os.path.join(run_dir, f"{name}.pada"))
            except Exception as exc:
                raise RunFailure(f"run {name}: {exc}") from exc
            finals.append(log.final)

    by_cell = _errors_by_cell(finals)
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

    header = ["strategy", "frequency", "mean_error"] + [f"seed_{s}" for s in cfg.seeds]
    lines = [",".join(header)]
    for row in rows:
        cols = [row["strategy"], row["frequency"], repr(row["mean_error"])]
        cols += [repr(e) for e in row["per_seed"]]
        lines.append(",".join(cols))
    atomic_write_text(table_csv, "\n".join(lines) + "\n")
    atomic_write_text(
        table_json, json.dumps({"seeds": cfg.seeds, "rows": rows}, indent=2) + "\n"
    )
    return table_csv, table_json


def cmd_compare_masks(path_a: str, path_b: str, out_dir: str, force: bool = False):
    """IOU/MMA similarity report for two mask files (CSV + JSON)."""
    csv_path = os.path.join(out_dir, "mask_report.csv")
    json_path = os.path.join(out_dir, "mask_report.json")
    _check_outputs([csv_path, json_path], force)
    os.makedirs(out_dir, exist_ok=True)
    report = layerwise_report(load_mask(path_a), load_mask(path_b))
    report_to_csv(report, csv_path)
    report_to_json(report, json_path)
    return csv_path, json_path


def cmd_report(run_out: str, out_dir: str | None = None) -> tuple[str, str]:
    """Aggregate the .jsonl logs of the runs ``table.json`` lists into plot-ready files."""
    table_json = os.path.join(run_out, "table.json")
    if not os.path.isfile(table_json):
        raise ConfigError(f"no table.json under {run_out} (not a finished `pada run`)")
    with open(table_json, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    names = sorted(
        _cell_name(row["strategy"], row["frequency"], seed)
        for row in table["rows"]
        for seed in table["seeds"]
    )
    logs = [(n, read_log_jsonl(os.path.join(run_out, "runs", f"{n}.jsonl"))) for n in names]
    out_dir = out_dir or run_out
    os.makedirs(out_dir, exist_ok=True)

    lines = ["run,strategy,frequency,seed,update,rate,sparsity_before,sparsity_after,train_loss"]
    for name, log in logs:
        fin = log.final
        for ev in log.events:
            lines.append(
                f"{name},{fin.get('strategy')},{fin.get('frequency')},{fin.get('seed')},"
                f"{ev.update},{ev.rate!r},{ev.sparsity_before!r},{ev.sparsity_after!r},"
                f"{ev.train_loss!r}"
            )
    events_csv = os.path.join(out_dir, "events.csv")
    atomic_write_text(events_csv, "\n".join(lines) + "\n")

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
    summary_json = os.path.join(out_dir, "summary.json")
    atomic_write_text(
        summary_json, json.dumps({"cells": cells, "runs": runs}, indent=2) + "\n"
    )
    return events_csv, summary_json


def _category(exc: Exception) -> str:
    if isinstance(exc, RunFailure):
        return _category(exc.__cause__) if exc.__cause__ is not None else "run"
    if isinstance(exc, FormatError):
        return "format"
    if isinstance(exc, StructureMismatchError):
        return "structure"
    if isinstance(exc, TrainingDivergedError):
        return "training"
    if isinstance(exc, OSError):
        return "io"
    if isinstance(exc, ValueError):
        return "config"
    return "internal"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pada", description="prune-assisted domain adaptation experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="override the config's output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        return p

    add_config_cmd("pretrain", "denoising pre-training; writes the pretrained checkpoint")
    add_config_cmd("make-donor", "source-domain fine-tuning; writes the donor checkpoint")
    p_run = add_config_cmd("run", "run the strategy/frequency grid over all seeds")
    p_run.add_argument("--seeds", default=None, help="comma-separated seed list override")

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
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("pretrain", "make-donor", "run"):
            cfg = load_config(args.config)
            if args.out is not None:
                cfg.out = args.out
            if args.command == "pretrain":
                path = cmd_pretrain(cfg, force=args.force)
                print(f"wrote {path}")
            elif args.command == "make-donor":
                path = cmd_make_donor(cfg, force=args.force)
                print(f"wrote {path}")
            else:
                if args.seeds is not None:
                    cfg.seeds = check_seeds(s for s in args.seeds.split(",") if s)
                csv_path, json_path = cmd_run(cfg, force=args.force)
                print(f"wrote {csv_path}")
                print(f"wrote {json_path}")
        elif args.command == "compare-masks":
            csv_path, json_path = cmd_compare_masks(
                args.mask_a, args.mask_b, args.out, force=args.force
            )
            print(f"wrote {csv_path}")
            print(f"wrote {json_path}")
        else:
            events_csv, summary_json = cmd_report(args.run_out, args.out)
            print(f"wrote {events_csv}")
            print(f"wrote {summary_json}")
    except Exception as exc:  # single-line, machine-readable failure output
        print(f"{_category(exc)}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
