import json
import os

import numpy as np
import pytest

from pada.cli import cmd_compare_masks, cmd_make_donor, cmd_pretrain, cmd_report, cmd_run, main
from pada.config import parse_config
from pada.params import load_checkpoint
from pada.pruning import Mask, MaskEntry, save_mask
from pada.schedule import ConfigError, read_log_jsonl


def small_config(out, seeds=(0, 1)):
    return {
        "task": {
            "seed": 7,
            "num_classes": 4,
            "input_dim": 8,
            "rotation_deg": 30.0,
            "feature_scale": 1.15,
            "noise_std": 0.2,
            "class_std": 1.0,
            "mean_scale": 1.5,
            "source_unlabeled": 300,
            "source_labeled": 300,
            "target_labeled": 24,
            "target_eval": 200,
        },
        "arch": {"hidden": [12, 10], "activation": "tanh"},
        "pretrain": {"lr": 0.05, "batch": 16, "updates": 120, "seed": 11, "denoise_std": 0.3},
        "donor": {"lr": 0.05, "batch": 16, "updates": 120, "seed": 12},
        "target": {"lr": 0.05, "batch": 8},
        "schedule": {
            "total_updates": 60,
            "interval": 20,
            "rates": {
                "once": [40.0],
                "iterative": [30.0, 30.0, 30.0],
                "dynamic_iterative": [40.0, 20.0, 10.0],
            },
        },
        "strategies": ["TAG", "TAW", "CD-TAW"],
        "frequencies": ["once", "iterative", "dynamic_iterative"],
        "include_dft": True,
        "seeds": list(seeds),
        "out": out,
    }


def prep(tmp_path, name="exp", seeds=(0, 1)):
    cfg = parse_config(small_config(str(tmp_path / name), seeds=seeds))
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    return cfg


def test_full_grid_table_has_ten_rows(tmp_path):
    cfg = prep(tmp_path)
    table_csv, table_json = cmd_run(cfg)
    lines = open(table_csv).read().splitlines()
    assert lines[0] == "strategy,frequency,mean_error,seed_0,seed_1"
    assert len(lines) == 1 + 10  # DFT + 3 strategies x 3 frequencies
    doc = json.loads(open(table_json).read())
    assert [r["strategy"] for r in doc["rows"][:2]] == ["DFT", "TAG"]
    assert doc["seeds"] == [0, 1]
    for row in doc["rows"]:
        assert len(row["per_seed"]) == 2
        assert row["mean_error"] == sum(row["per_seed"]) / 2


def test_rerun_is_byte_identical(tmp_path):
    cfg = prep(tmp_path)
    table_csv, table_json = cmd_run(cfg)
    first_csv = open(table_csv, "rb").read()
    first_json = open(table_json, "rb").read()
    run_dir = os.path.join(cfg.out, "runs")
    first_ckpts = {
        f: open(os.path.join(run_dir, f), "rb").read()
        for f in sorted(os.listdir(run_dir))
        if f.endswith(".pada")
    }
    cmd_run(cfg, force=True)
    assert open(table_csv, "rb").read() == first_csv
    assert open(table_json, "rb").read() == first_json
    for f, blob in first_ckpts.items():
        assert open(os.path.join(run_dir, f), "rb").read() == blob


def test_prune_event_timestamps_match_schedule_contract(tmp_path):
    cfg = prep(tmp_path)
    cmd_run(cfg)
    run_dir = os.path.join(cfg.out, "runs")
    n_total, interval = cfg.total_updates, cfg.interval
    for fname in sorted(os.listdir(run_dir)):
        if not fname.endswith(".jsonl"):
            continue
        log = read_log_jsonl(os.path.join(run_dir, fname))
        if fname.startswith("dft"):
            assert log.events == []
            continue
        freq = log.final["frequency"]
        k = len(cfg.rates[freq])
        if freq == "once":
            expected = [0]
        else:
            n_events = min(k, n_total // interval + 1)
            expected = [i * interval for i in range(n_events)]
        assert [e.update for e in log.events] == expected


def test_pretrain_deterministic_bytes(tmp_path):
    cfg_a = parse_config(small_config(str(tmp_path / "a")))
    cfg_b = parse_config(small_config(str(tmp_path / "b")))
    path_a = cmd_pretrain(cfg_a)
    path_b = cmd_pretrain(cfg_b)
    assert open(path_a, "rb").read() == open(path_b, "rb").read()


def test_missing_config_field_is_named(tmp_path):
    doc = small_config(str(tmp_path / "x"))
    del doc["target"]["lr"]
    with pytest.raises(ConfigError, match="target.lr"):
        parse_config(doc)
    doc = small_config(str(tmp_path / "x"))
    del doc["schedule"]["rates"]["once"]
    with pytest.raises(ConfigError, match="schedule.rates.once"):
        parse_config(doc)


def test_output_collision_refused_without_force(tmp_path):
    cfg = parse_config(small_config(str(tmp_path / "exp")))
    cmd_pretrain(cfg)
    with pytest.raises(ConfigError, match="--force"):
        cmd_pretrain(cfg)
    cmd_pretrain(cfg, force=True)  # succeeds


def test_make_donor_roles_and_zero_updates(tmp_path):
    cfg = prep(tmp_path)
    pre = load_checkpoint(os.path.join(cfg.out, cfg.pretrained_file))
    donor = load_checkpoint(os.path.join(cfg.out, cfg.donor_file))
    assert donor.role == "finetuned_donor"
    assert any(
        not np.array_equal(a.data, b.data) for a, b in zip(pre.tensors, donor.tensors)
    )

    doc = small_config(str(tmp_path / "zero"))
    doc["donor"]["updates"] = 0
    cfg0 = parse_config(doc)
    cmd_pretrain(cfg0)
    cmd_make_donor(cfg0)
    pre0 = load_checkpoint(os.path.join(cfg0.out, cfg0.pretrained_file))
    donor0 = load_checkpoint(os.path.join(cfg0.out, cfg0.donor_file))
    assert donor0.tensors == pre0.tensors  # body identical without updates


def test_compare_masks_worked_example(tmp_path):
    ma = Mask([MaskEntry("w", np.array([True, False, True, False]))], source="TAG", rate=50.0)
    mb = Mask([MaskEntry("w", np.array([True, True, False, False]))], source="TAW", rate=50.0)
    pa, pb = str(tmp_path / "a.padm"), str(tmp_path / "b.padm")
    save_mask(ma, pa)
    save_mask(mb, pb)
    csv_path, json_path = cmd_compare_masks(pa, pb, str(tmp_path / "rep"))
    doc = json.loads(open(json_path).read())
    assert abs(doc["global"]["iou"] - 1.0 / 3.0) < 1e-12
    assert doc["global"]["mma"] == 0.5
    assert doc["mask_a"]["source"] == "TAG"
    global_line = open(csv_path).read().splitlines()[1]
    assert global_line.startswith("_global_,")

    csv2, json2 = cmd_compare_masks(pa, pa, str(tmp_path / "same"))
    doc2 = json.loads(open(json2).read())
    assert doc2["global"]["iou"] == 1.0 and doc2["global"]["mma"] == 1.0


def test_compare_masks_mismatch_exit_code(tmp_path, capsys):
    ma = Mask([MaskEntry("w", np.ones(4, dtype=bool))])
    mb = Mask([MaskEntry("w", np.ones(5, dtype=bool))])
    pa, pb = str(tmp_path / "a.padm"), str(tmp_path / "b.padm")
    save_mask(ma, pa)
    save_mask(mb, pb)
    code = main(["compare-masks", pa, pb, "--out", str(tmp_path / "rep")])
    assert code != 0
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("structure:")


def test_main_success_and_failure_paths(tmp_path, capsys):
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"] = ["TAG"]
    doc["frequencies"] = ["once"]
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["pretrain", "--config", cfg_path]) == 0
    assert main(["make-donor", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 0
    capsys.readouterr()

    assert main(["pretrain", "--config", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("io:")


def test_main_seeds_override(tmp_path):
    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1))
    doc["strategies"] = ["TAG"]
    doc["frequencies"] = ["once"]
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["pretrain", "--config", cfg_path]) == 0
    assert main(["make-donor", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path, "--seeds", "5"]) == 0
    header = open(os.path.join(doc["out"], "table.csv")).read().splitlines()[0]
    assert header == "strategy,frequency,mean_error,seed_5"


@pytest.mark.parametrize("seeds, message", [(",", "nonempty"), ("3,3", "duplicate")])
def test_bad_seeds_override_is_config_error(tmp_path, capsys, seeds, message):
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg_path, "--seeds", seeds]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("config:")
    assert message in err
    assert not os.path.exists(os.path.join(doc["out"], "table.csv"))


def test_config_duplicate_seeds_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate seeds in seed list: \\[4\\]"):
        parse_config(small_config(str(tmp_path / "exp"), seeds=(4, 5, 4)))


def test_run_missing_checkpoint_is_io_error(tmp_path, capsys):
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    code = main(["run", "--config", cfg_path])  # pretrain never ran
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("io:")
    assert "pretrained.pada" in err


def test_run_zero_dim_checkpoint_is_format_error(tmp_path, capsys):
    from pada.params import CHECKPOINT_MAGIC, write_container

    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    os.makedirs(doc["out"])
    write_container(
        os.path.join(doc["out"], "pretrained.pada"),
        CHECKPOINT_MAGIC,
        [("layers.0.weight", True, (12, 0), b"")],
        {"role": "pretrained"},
    )
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("format:")
    assert "dims must be positive" in err


def test_cell_failure_carries_run_identity(tmp_path, capsys):
    from pada.params import save_checkpoint
    from pada.trainer import ModelArch, init_model

    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"] = ["CD-TAW"]
    doc["frequencies"] = ["once"]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    # donor with a different hidden width: structurally incompatible
    bad_donor = init_model(ModelArch(8, (5,), 4), seed=0).with_role("finetuned_donor")
    save_checkpoint(bad_donor, os.path.join(cfg.out, cfg.donor_file))
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    code = main(["run", "--config", cfg_path])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("structure:")
    assert "run cd-taw_once_seed0" in err


def test_report_aggregates(tmp_path):
    cfg = prep(tmp_path, seeds=(0,))
    cmd_run(cfg)
    events_csv, summary_json = cmd_report(cfg.out)
    lines = open(events_csv).read().splitlines()
    assert lines[0].startswith("run,strategy,frequency,seed,update,rate")
    assert len(lines) > 1
    doc = json.loads(open(summary_json).read())
    assert {c["strategy"] for c in doc["cells"]} == {"DFT", "TAG", "TAW", "CD-TAW"}
    assert all("error_rate" in r["final"] for r in doc["runs"])


def test_report_means_equal_table_means(tmp_path):
    # seeds whose file names sort differently from their values
    doc = small_config(str(tmp_path / "exp"), seeds=(9, 10, 11))
    doc["strategies"] = ["TAG", "CD-TAW"]
    doc["frequencies"] = ["once", "iterative"]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    _, table_json = cmd_run(cfg)
    _, summary_json = cmd_report(cfg.out)
    table = {
        (r["strategy"], r["frequency"]): r["mean_error"]
        for r in json.loads(open(table_json).read())["rows"]
    }
    summary = {
        (c["strategy"], c["frequency"]): c["mean_error"]
        for c in json.loads(open(summary_json).read())["cells"]
    }
    assert summary == table


def test_report_reads_only_the_last_run(tmp_path):
    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1))
    doc["strategies"] = ["TAG"]
    doc["frequencies"] = ["once", "iterative"]
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["pretrain", "--config", cfg_path]) == 0
    assert main(["make-donor", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path, "--seeds", "0,1"]) == 0
    assert main(["run", "--config", cfg_path, "--seeds", "1", "--force"]) == 0
    assert main(["report", doc["out"]]) == 0
    # the seed-0 logs of the first run are still on disk
    assert os.path.exists(os.path.join(doc["out"], "runs", "dft_seed0.jsonl"))
    table = json.loads(open(os.path.join(doc["out"], "table.json")).read())
    summary = json.loads(open(os.path.join(doc["out"], "summary.json")).read())
    assert [c["n_runs"] for c in summary["cells"]] == [1, 1, 1]
    assert {(c["strategy"], c["frequency"]): c["mean_error"] for c in summary["cells"]} == {
        (r["strategy"], r["frequency"]): r["mean_error"] for r in table["rows"]
    }
    assert [r["run"] for r in summary["runs"]] == [
        "dft_seed1", "tag_iterative_seed1", "tag_once_seed1"
    ]
    events = open(os.path.join(doc["out"], "events.csv")).read().splitlines()[1:]
    assert all(line.split(",")[3] == "1" for line in events)


def test_report_without_table_is_config_error(tmp_path, capsys):
    os.makedirs(tmp_path / "exp" / "runs")
    assert main(["report", str(tmp_path / "exp")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("config:")
    assert "table.json" in err


def test_taw_masks_rank_the_seed_fine_tune(tmp_path):
    from pada.data import gen_domain_shift
    from pada.pruning import compute_ump_mask, load_mask
    from pada.trainer import finetune_supervised

    cfg = prep(tmp_path, seeds=(3,))
    cmd_run(cfg)
    pre = load_checkpoint(os.path.join(cfg.out, cfg.pretrained_file))
    target = gen_domain_shift(cfg.task_seed, cfg.task).target_labeled
    finetuned = finetune_supervised(pre, target, cfg.target_cfg(3))
    for freq in cfg.frequencies:
        r1 = cfg.schedule_for(freq).rates[0]
        mask = load_mask(os.path.join(cfg.out, "runs", f"taw_{freq}_seed3.padm"))
        assert mask == compute_ump_mask(finetuned, r1)
        assert (mask.source, mask.rate) == ("TAW", r1)


def test_run_writes_masks_for_pada_cells(tmp_path):
    cfg = prep(tmp_path, seeds=(0,))
    cmd_run(cfg)
    run_dir = os.path.join(cfg.out, "runs")
    names = os.listdir(run_dir)
    assert "tag_once_seed0.padm" in names
    assert not any(n.startswith("dft") and n.endswith(".padm") for n in names)
