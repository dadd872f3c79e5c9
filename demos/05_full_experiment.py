"""End-to-end experiment through the CLI layer.

Generates a reduced config (3 seeds, full strategy x frequency grid), runs
pretrain -> make-donor -> run -> report, and compares the TAG and CD-TAW
masks of one cell, all via the same entry points the `pada` command uses.
"""

import json
import os
import tempfile
from pathlib import Path

from pada.cli import cmd_compare_masks, cmd_make_donor, cmd_pretrain, cmd_report, cmd_run
from pada.config import default_config, parse_config

doc = default_config()
doc["seeds"] = [0, 1, 2]            # reduced sweep so the demo stays quick
with tempfile.TemporaryDirectory(prefix="pada-demo-") as workdir:
    doc["out"] = os.path.join(workdir, "exp")
    cfg = parse_config(doc)

    print("stage 1: denoising pre-training on the source domain (P)")
    print("  ->", cmd_pretrain(cfg))
    print("stage 2: donor fine-tuning on source labels (J)")
    print("  ->", cmd_make_donor(cfg))
    print("stage 3: grid of strategies x frequencies x seeds on target labels (L)")
    table_csv, table_json = cmd_run(cfg)
    print("  ->", table_csv)

    rows = json.loads(Path(table_json).read_text())["rows"]
    print(f"\n{'strategy':8s} {'frequency':18s} mean target error")
    for row in rows:
        print(f"{row['strategy']:8s} {row['frequency']:18s} {row['mean_error']:.4f}")

    events_csv, summary_json = cmd_report(cfg.out)
    print("\nreport aggregates ->", events_csv)

    run_dir = os.path.join(cfg.out, "runs")
    pair = ("tag_dynamic_iterative_seed0.padm", "cd-taw_dynamic_iterative_seed0.padm")
    csv_path, json_path = cmd_compare_masks(
        os.path.join(run_dir, pair[0]), os.path.join(run_dir, pair[1]),
        os.path.join(cfg.out, "mask_cmp"),
    )
    report = json.loads(Path(json_path).read_text())
    print(f"\nTAG vs CD-TAW initial masks: IOU {report['global']['iou']:.3f} "
          f"MMA {report['global']['mma']:.3f} (per-layer rows in {csv_path})")
