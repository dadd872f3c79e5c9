import json
import os
import random
import re
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from pada.cli import cmd_compare_masks, cmd_make_donor, cmd_pretrain, cmd_report, cmd_run, main
from pada.config import ConfigError, default_config, load_config, parse_config
from pada.params import MASK_MAGIC, FormatError, load_checkpoint, save_checkpoint, write_container
from pada.pruning import Mask, MaskEntry, save_mask
from pada.schedule import read_log_jsonl


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
    lines = Path(table_csv).read_text().splitlines()
    assert lines[0] == "strategy,frequency,mean_error,seed_0,seed_1"
    assert len(lines) == 1 + 10  # DFT + 3 strategies x 3 frequencies
    doc = json.loads(Path(table_json).read_text())
    assert [r["strategy"] for r in doc["rows"][:2]] == ["DFT", "TAG"]
    assert doc["seeds"] == [0, 1]
    for row in doc["rows"]:
        assert len(row["per_seed"]) == 2
        assert row["mean_error"] == sum(row["per_seed"]) / 2


def test_rerun_is_byte_identical(tmp_path):
    cfg = prep(tmp_path)
    table_csv, table_json = cmd_run(cfg)
    first_csv = Path(table_csv).read_bytes()
    first_json = Path(table_json).read_bytes()
    run_dir = os.path.join(cfg.out, "runs")
    first_ckpts = {
        f: Path(run_dir, f).read_bytes()
        for f in sorted(os.listdir(run_dir))
        if f.endswith(".pada")
    }
    cmd_run(cfg, force=True)
    assert Path(table_csv).read_bytes() == first_csv
    assert Path(table_json).read_bytes() == first_json
    for f, blob in first_ckpts.items():
        assert Path(run_dir, f).read_bytes() == blob


def test_prune_event_timestamps_match_schedule_contract(tmp_path):
    cfg = prep(tmp_path)
    cmd_run(cfg)
    run_dir = os.path.join(cfg.out, "runs")
    n_total = cfg.target.updates
    for fname in sorted(os.listdir(run_dir)):
        if not fname.endswith(".jsonl"):
            continue
        log = read_log_jsonl(os.path.join(run_dir, fname))
        if fname.startswith("dft"):
            assert log.events == []
            continue
        freq = log.final["frequency"]
        k, interval = len(cfg.schedules[freq].rates), cfg.schedules[freq].interval
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
    assert Path(path_a).read_bytes() == Path(path_b).read_bytes()


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


@pytest.mark.parametrize("stray", ["tag_once_seed0.pada", "tag_once_seed0.padm", "dft_seed0.pada"])
def test_run_refuses_every_file_it_would_write(tmp_path, stray):
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"], doc["frequencies"] = ["TAG"], ["once"]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    path = Path(cfg.out, "runs", stray)
    path.parent.mkdir()
    path.write_bytes(b"stray")
    with pytest.raises(ConfigError, match=f"output exists: {re.escape(str(path))} "):
        cmd_run(cfg)
    assert path.read_bytes() == b"stray"
    assert not Path(cfg.out, "table.csv").exists()
    cmd_run(cfg, force=True)
    assert path.read_bytes() != b"stray"


def test_taw_without_the_dft_cell_writes_the_same_other_files(tmp_path):
    # TAW ranks its seed's DFT model, which then trains without being written
    def outputs(name, include_dft):
        doc = small_config(str(tmp_path / name), seeds=(0, 1))
        doc["strategies"], doc["include_dft"] = ["TAG", "TAW"], include_dft
        cfg = parse_config(doc)
        cmd_pretrain(cfg)
        table_csv, table_json = cmd_run(cfg)
        run_dir = Path(cfg.out, "runs")
        files = {n: Path(run_dir, n).read_bytes() for n in os.listdir(run_dir)}
        lines = Path(table_csv).read_text().splitlines()
        return files, lines, json.loads(Path(table_json).read_text())

    files, lines, table = outputs("without", False)
    all_files, all_lines, all_table = outputs("with", True)
    assert not any(n.startswith("dft") for n in files)
    assert not any(line.startswith("DFT,") for line in lines)
    assert all(row["strategy"] != "DFT" for row in table["rows"])
    assert files == {n: b for n, b in all_files.items() if not n.startswith("dft")}
    assert lines == [line for line in all_lines if not line.startswith("DFT,")]
    assert table == {**all_table, "rows": all_table["rows"][1:]}
    assert all_table["rows"][0]["strategy"] == "DFT"


def test_make_donor_roles_and_zero_updates(tmp_path):
    cfg = prep(tmp_path)
    pre = load_checkpoint(os.path.join(cfg.out, "pretrained.pada"))
    donor = load_checkpoint(os.path.join(cfg.out, "donor.pada"))
    assert donor.role == "finetuned_donor"
    assert any(
        not np.array_equal(a.data, b.data) for a, b in zip(pre.tensors, donor.tensors)
    )

    doc = small_config(str(tmp_path / "zero"))
    doc["donor"]["updates"] = 0
    cfg0 = parse_config(doc)
    cmd_pretrain(cfg0)
    cmd_make_donor(cfg0)
    pre0 = load_checkpoint(os.path.join(cfg0.out, "pretrained.pada"))
    donor0 = load_checkpoint(os.path.join(cfg0.out, "donor.pada"))
    assert donor0.tensors == pre0.tensors  # body identical without updates


def test_compare_masks_worked_example(tmp_path):
    ma = Mask([MaskEntry("w", np.array([True, False, True, False]))], source="TAG", rate=50.0)
    mb = Mask([MaskEntry("w", np.array([True, True, False, False]))], source="TAW", rate=50.0)
    pa, pb = str(tmp_path / "a.padm"), str(tmp_path / "b.padm")
    save_mask(ma, pa)
    save_mask(mb, pb)
    csv_path, json_path = cmd_compare_masks(pa, pb, str(tmp_path / "rep"))
    doc = json.loads(Path(json_path).read_text())
    assert abs(doc["global"]["iou"] - 1.0 / 3.0) < 1e-12
    assert doc["global"]["mma"] == 0.5
    assert doc["mask_a"]["source"] == "TAG"
    global_line = Path(csv_path).read_text().splitlines()[1]
    assert global_line.startswith("_global_,")

    csv2, json2 = cmd_compare_masks(pa, pa, str(tmp_path / "same"))
    doc2 = json.loads(Path(json2).read_text())
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
    assert err == f"structure: {pa} vs {pb}: masks do not align: tensor 0 ('w'): shape (4,) vs (5,)"


def test_compare_masks_refuses_empty_masks_naming_both_files(tmp_path, capsys):
    pa, pb = str(tmp_path / "a.padm"), str(tmp_path / "b.padm")
    save_mask(Mask([]), pa)
    save_mask(Mask([]), pb)
    assert main(["compare-masks", pa, pb, "--out", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err.strip() == (
        f"structure: {pa} vs {pb}: cannot compare empty masks"
    )
    assert not (tmp_path / "rep" / "mask_report.csv").exists()


def test_compare_masks_refuses_a_nan_rate_and_writes_no_report(tmp_path, capsys):
    pa, pb = str(tmp_path / "a.padm"), str(tmp_path / "b.padm")
    save_mask(Mask([MaskEntry("w", np.ones(4, dtype=bool))], source="TAG", rate=50.0), pa)
    write_container(pb, MASK_MAGIC, [("w", True, (4,), b"\x0f")], {"source": "TAG", "rate": "nan"})
    assert main(["compare-masks", pa, pb, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"format: {pb}: mask rate must lie in [0, 100], got nan"
    )
    assert sorted(os.listdir(tmp_path)) == ["a.padm", "b.padm"]


def test_a_refused_compare_masks_creates_no_directory(tmp_path, capsys):
    pa, missing = tmp_path / "a.padm", tmp_path / "missing.padm"
    save_mask(Mask([]), str(pa))
    for a, b in ((pa, pa), (pa, missing)):  # empty masks, then a mask that is not there
        assert main(["compare-masks", str(a), str(b), "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith(("structure: ", "io: "))
        assert not (tmp_path / "rep").exists()


def test_a_refused_make_donor_creates_no_directory(tmp_path, capsys):
    # the pretrained checkpoint is read from the output directory, which the
    # config points where there is none
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config(str(tmp_path / "new"), seeds=(0,))))
    assert main(["make-donor", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("io: ") and "pretrained.pada" in err, err
    assert not (tmp_path / "new").exists()


def test_a_grid_without_cd_taw_cells_reads_no_donor(tmp_path, capsys):
    # CD-TAW is named, but no frequency plans a cell of it: only DFT trains
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"], doc["frequencies"] = ["CD-TAW"], []
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    assert not (tmp_path / "exp" / "donor.pada").exists()
    assert sorted(os.listdir(tmp_path / "exp" / "runs")) == ["dft_seed0.jsonl", "dft_seed0.pada"]


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


def test_each_subcommand_prints_the_paths_it_wrote(tmp_path, capsys):
    out = tmp_path / "exp"
    doc = small_config(str(out), seeds=(0,))
    doc["strategies"] = ["TAG"]
    doc["frequencies"] = ["once"]
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    mask = str(out / "runs" / "tag_once_seed0.padm")
    for argv, written in [
        (["pretrain", "--config", cfg_path], [out / "pretrained.pada"]),
        (["make-donor", "--config", cfg_path], [out / "donor.pada"]),
        (["run", "--config", cfg_path], [out / "table.csv", out / "table.json"]),
        (["compare-masks", mask, mask, "--out", str(out / "cmp")],
         [out / "cmp" / "mask_report.csv", out / "cmp" / "mask_report.json"]),
        (["report", str(out)], [out / "events.csv", out / "summary.json"]),
    ]:
        assert main(argv) == 0
        assert capsys.readouterr().out == "".join(f"wrote {path}\n" for path in written)


@pytest.mark.parametrize(
    "command, option, value",
    [("pretrain", "--out", "elsewhere"), ("make-donor", "--out", "elsewhere"),
     ("run", "--out", "elsewhere"), ("run", "--seeds", "5")],
)
def test_an_option_that_would_override_the_config_is_a_usage_error(
    tmp_path, capsys, train_calls, command, option, value
):
    # the config alone says what a stage does and where it writes
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config(str(tmp_path / "exp"), seeds=(0,))))
    value = str(tmp_path / value) if option == "--out" else value
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
    assert train_calls == []
    assert os.listdir(tmp_path) == ["config.json"]


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


def test_run_nonfinite_donor_is_format_error(tmp_path, capsys):
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"] = ["CD-TAW"]
    doc["frequencies"] = ["once"]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    donor_path = os.path.join(cfg.out, "donor.pada")
    donor = load_checkpoint(donor_path)
    donor["layers.1.weight"].data[0, 0] = np.nan
    save_checkpoint(donor, donor_path)
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("format:")
    assert "donor.pada" in err and "'layers.1.weight'" in err
    assert not os.path.exists(os.path.join(cfg.out, "table.csv"))


def narrow_donor():
    """An 8-5-4 donor: one hidden layer where small_config's models have two."""
    from pada.params import ParameterSet
    from pada.trainer import ModelArch, init_model

    narrow = init_model(ModelArch(8, (5,), 4), seed=0)
    return ParameterSet(narrow.tensors, "finetuned_donor", narrow.meta)


@pytest.mark.parametrize("bad", ["donor", "runs-file", "cls-bias"])
def test_a_bad_input_is_refused_before_any_training(tmp_path, capsys, train_calls, bad):
    # the DFT, TAG and TAW runs come before CD-TAW in table order, yet each
    # input ends `pada run` in one line naming its file before any update
    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("pretrain", "make-donor"):
        assert main([command, "--config", str(cfg_path)]) == 0
    out = Path(doc["out"])
    pre, donor = out / "pretrained.pada", out / "donor.pada"
    if bad == "donor":
        save_checkpoint(narrow_donor(), str(donor))
        want = f"structure: {donor}: not a model of the config's arch: tensor count differs: 8 vs 6"
    elif bad == "runs-file":
        (out / "runs").write_text("not a directory\n")
        want = f"io: cannot write {out / 'runs'}: not a directory"
    else:  # a name of the same length, so the container stays valid
        data = pre.read_bytes()
        assert data.count(b"cls.bias") == 1
        pre.write_bytes(data.replace(b"cls.bias", b"cls.biaz"))
        want = (f"structure: {pre}: not a model of the config's arch: "
                "tensor 7: name 'cls.bias' vs 'cls.biaz'")
    before = run_files(out)
    capsys.readouterr()
    train_calls.clear()
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.strip() == want
    assert train_calls == []
    assert run_files(out) == before


def test_an_input_failure_is_reported_before_any_divergence(tmp_path, capsys, train_calls):
    # diverging_grid's runs diverge, the first in table order being seed 1's
    # TAW once; an incompatible donor is still the failure reported, and
    # nothing trains
    doc, cfg, _ = diverging_grid(tmp_path)
    donor = os.path.join(cfg.out, "donor.pada")
    save_checkpoint(narrow_donor(), donor)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    train_calls.clear()
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"structure: {donor}: not a model of the config's arch: tensor count differs: 8 vs 6"
    )
    assert train_calls == []


def refuse_checkpoint(tmp_path, capsys, train_calls, doc, edit, command):
    """Build ``doc``'s checkpoints, ``edit`` them, and return the line ``command`` fails with.

    The refusal must come before any update and leave every file as it was.
    """
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for stage in ("pretrain", "make-donor"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    edit(Path(doc["out"]), cfg_path)
    before = run_files(doc["out"])
    capsys.readouterr()
    train_calls.clear()
    assert main([command, "--config", str(cfg_path), "--force"]) == 1
    err = capsys.readouterr().err.strip()
    assert train_calls == []
    assert run_files(doc["out"]) == before
    return err


def transpose_layer_1(out, _):
    """Save ``layers.1.weight`` transposed: a valid container of the same size."""
    path = out / "pretrained.pada"
    ps, size = load_checkpoint(str(path)), path.stat().st_size
    ps["layers.1.weight"].data = np.ascontiguousarray(ps["layers.1.weight"].data.T)
    save_checkpoint(ps, str(path))
    assert path.stat().st_size == size


@pytest.mark.parametrize("command, strategies", [
    ("run", []), ("run", ["TAG"]), ("run", ["CD-TAW"]), ("make-donor", ["TAG"]),
], ids=["dft-grid", "tag-grid", "cd-taw-grid", "make-donor"])
def test_a_transposed_weight_is_refused_where_it_is_loaded(
    tmp_path, capsys, train_calls, command, strategies
):
    # whatever the grid trains first, and though the donor is intact, the
    # pretrained model is named before any update
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["arch"]["hidden"] = [10, 12]
    doc["strategies"] = strategies
    err = refuse_checkpoint(tmp_path, capsys, train_calls, doc, transpose_layer_1, command)
    assert err == (
        f"structure: {tmp_path / 'exp' / 'pretrained.pada'}: not a model of the config's arch: "
        "tensor 2 ('layers.1.weight'): shape (12, 10) vs (10, 12)"
    )


def edit_config(key, value):
    """An edit that sets the config's ``arch[key]`` once the checkpoints exist."""
    def edit(_, cfg_path):
        doc = json.loads(cfg_path.read_text())
        doc["arch"][key] = value
        cfg_path.write_text(json.dumps(doc))
    return edit


@pytest.mark.parametrize("command", ["make-donor", "run"])
@pytest.mark.parametrize("key, made, used, problem", [
    ("hidden", [64, 64], [32, 32], "tensor 0 ('layers.0.weight'): shape (32, 8) vs (64, 8)"),
    ("activation", "relu", "tanh", "activation 'tanh' vs 'relu'"),
], ids=["hidden", "activation"])
def test_a_checkpoint_of_another_arch_is_refused(
    tmp_path, capsys, train_calls, command, key, made, used, problem
):
    # checkpoints made under one arch, then read under another config
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["arch"][key] = made
    err = refuse_checkpoint(tmp_path, capsys, train_calls, doc, edit_config(key, used), command)
    pre = tmp_path / "exp" / "pretrained.pada"
    assert err == f"structure: {pre}: not a model of the config's arch: {problem}"


@pytest.mark.parametrize("command", ["make-donor", "run"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_a_checkpoint_without_activation_is_refused(tmp_path, capsys, train_calls, command, activation):
    # the trainer writes every model's activation, so a reader invents none,
    # neither the config's (tanh) nor another one (relu)
    def edit(out, cfg_path):
        ps = load_checkpoint(str(out / "pretrained.pada"))
        del ps.meta["activation"]
        save_checkpoint(ps, str(out / "pretrained.pada"))
        edit_config("activation", activation)(out, cfg_path)

    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    err = refuse_checkpoint(tmp_path, capsys, train_calls, doc, edit, command)
    assert err == f"format: {tmp_path / 'exp' / 'pretrained.pada'}: no activation metadata"


def test_run_cells_returns_finished_runs_and_divergences_only(tmp_path, train_calls):
    # an input failure raises before the first update; a slot ends only in a
    # finished run or its divergence
    from pada.params import StructureMismatchError
    from pada.schedule import run_cells
    from pada.trainer import TrainingDivergedError

    _, cfg, (pre, target, tcfg, donor) = diverging_grid(tmp_path)
    slots = grid_slots(cfg)
    outcomes = run_cells(pre, slots, target, tcfg, donor)
    diverged = [isinstance(o, TrainingDivergedError) for o in outcomes]
    assert 0 < sum(diverged) < len(slots)
    for outcome, failed in zip(outcomes, diverged):
        assert failed or type(outcome) is tuple and len(outcome) == 3, outcome
    train_calls.clear()
    with pytest.raises(StructureMismatchError, match="^donor incompatible with pretrained model"):
        run_cells(pre, slots, target, tcfg, narrow_donor())
    assert train_calls == []


def test_report_aggregates(tmp_path):
    cfg = prep(tmp_path, seeds=(0,))
    cmd_run(cfg)
    events_csv, summary_json = cmd_report(cfg.out)
    lines = Path(events_csv).read_text().splitlines()
    assert lines[0].startswith("run,strategy,frequency,seed,update,rate")
    assert len(lines) > 1
    doc = json.loads(Path(summary_json).read_text())
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
        for r in json.loads(Path(table_json).read_text())["rows"]
    }
    summary = {
        (c["strategy"], c["frequency"]): c["mean_error"]
        for c in json.loads(Path(summary_json).read_text())["cells"]
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
    assert main(["run", "--config", cfg_path]) == 0
    stale = Path(doc["out"], "runs", "dft_seed0.jsonl")
    first_log = stale.read_bytes()
    doc["seeds"] = [1]
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg_path, "--force"]) == 0
    # --force removed the seed-0 files; a log put back by hand is not read
    assert not stale.exists()
    stale.write_bytes(first_log)
    assert main(["report", doc["out"]]) == 0
    table = json.loads(Path(doc["out"], "table.json").read_text())
    summary = json.loads(Path(doc["out"], "summary.json").read_text())
    assert [c["n_runs"] for c in summary["cells"]] == [1, 1, 1]
    assert {(c["strategy"], c["frequency"]): c["mean_error"] for c in summary["cells"]} == {
        (r["strategy"], r["frequency"]): r["mean_error"] for r in table["rows"]
    }
    assert [r["run"] for r in summary["runs"]] == [
        "dft_seed1", "tag_iterative_seed1", "tag_once_seed1"
    ]
    events = Path(doc["out"], "events.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[3] == "1" for line in events)


def test_a_forced_run_removes_the_aggregates_of_the_table_it_replaces(tmp_path, capsys):
    # events.csv and summary.json describe the table report read, so a new table ends them
    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1))
    doc["strategies"], doc["frequencies"] = ["TAG"], ["once"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for argv in (["pretrain"], ["make-donor"], ["run"]):
        assert main([*argv, "--config", str(cfg_path)]) == 0
    assert main(["report", doc["out"]]) == 0
    out = Path(doc["out"])
    for name in ("table.csv", "table.json"):
        (out / name).unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"config: output exists: {out / 'events.csv'} (use --force to overwrite)"
    )

    doc["seeds"] = [5]
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path), "--force"]) == 0
    assert json.loads((out / "table.json").read_text())["seeds"] == [5]
    assert not (out / "events.csv").exists() and not (out / "summary.json").exists()


def test_run_force_removes_only_the_run_files_the_plan_drops(tmp_path):
    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1))
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["pretrain", "--config", cfg_path]) == 0
    assert main(["make-donor", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 0
    run_dir = Path(doc["out"], "runs")
    kept = ["notes.txt", "tag_once_seed0.jsonl.bak", "foo_once_seed0.jsonl", "tag_once_seed0.csv",
            "TAG_once_seed0.jsonl", "dft_seed0.padm.tmp"]
    for name in kept:
        (run_dir / name).write_text("not a run\n")
    (run_dir / "dft_seed0.padm").write_text("a stray mask\n")  # pada-named, never planned
    (run_dir / "taw_once_seed9.pada").mkdir()  # not a file
    seed1 = sorted(n for n in os.listdir(run_dir) if n.endswith("_seed1" + Path(n).suffix))
    assert len(seed1) == 10 + 10 + 9

    doc["seeds"] = [1]
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg_path, "--force"]) == 0
    assert sorted(os.listdir(run_dir)) == sorted(seed1 + kept + ["taw_once_seed9.pada"])
    for name in kept:
        assert (run_dir / name).read_text() == "not a run\n"


def run_files(out):
    """The bytes of every file under ``out``, by relative path."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in Path(out).rglob("*")
        if path.is_file()
    }


def test_a_failed_forced_rerun_leaves_the_finished_run_as_it_was(tmp_path, capsys, train_calls):
    # config B trains every run, and some diverge at its learning rate, as in
    # diverging_grid; none of B's finished runs may land among config A's
    doc = small_config(str(tmp_path / "exp"), seeds=(1, 6))
    doc["arch"]["activation"] = "relu"
    cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
    cfg_a.write_text(json.dumps(doc))
    doc["target"]["lr"] = 3000.0
    cfg_b.write_text(json.dumps(doc))
    for command in ("pretrain", "make-donor", "run"):
        assert main([command, "--config", str(cfg_a)]) == 0
    before = run_files(doc["out"])
    capsys.readouterr()
    train_calls.clear()

    assert main(["run", "--config", str(cfg_b), "--force"]) == 1
    err = capsys.readouterr().err.strip()
    assert re.fullmatch(r"training: run \S+_seed[16]: training diverged \(non-finite loss\) "
                        r"at update \d+", err), err
    assert train_calls
    assert run_files(doc["out"]) == before


def test_a_forced_rerun_that_fails_to_write_leaves_no_table(tmp_path, capsys, monkeypatch):
    import pada.cli

    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"], doc["frequencies"] = ["TAG"], ["once", "iterative"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("pretrain", "make-donor", "run"):
        assert main([command, "--config", str(cfg_path)]) == 0
    calls, save = [], pada.cli.save_checkpoint

    def fail_on_the_third(ps, path):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(f"cannot write {path}: no space left")
        save(ps, path)

    monkeypatch.setattr(pada.cli, "save_checkpoint", fail_on_the_third)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--force"]) == 1
    third = os.path.join(doc["out"], "runs", "tag_iterative_seed0.pada")
    assert calls[2] == third
    assert capsys.readouterr().err.strip() == f"io: cannot write {third}: no space left"
    assert not any(Path(doc["out"], name).exists() for name in ("table.csv", "table.json"))
    assert main(["report", doc["out"]]) == 1
    assert capsys.readouterr().err.strip().startswith(
        f"config: no table.json under {doc['out']} (not a finished `pada run`)"
    )


def test_run_refuses_run_files_of_any_plan(tmp_path):
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"], doc["frequencies"] = ["TAG"], ["once"]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    stray = Path(cfg.out, "runs", "tag_once_seed7.jsonl")  # a seed this plan does not run
    stray.parent.mkdir()
    stray.write_bytes(b"stray")
    with pytest.raises(ConfigError, match=f"output exists: {re.escape(str(stray))} "):
        cmd_run(cfg)
    assert sorted(os.listdir(stray.parent)) == [stray.name]
    assert stray.read_bytes() == b"stray"


def all_paths(root):
    """Every file and directory under ``root``, with each file's bytes."""
    return {str(p): p.read_bytes() if p.is_file() else None for p in Path(root).rglob("*")}


@pytest.mark.parametrize("command", ["pretrain", "make-donor", "run", "compare-masks", "report"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_an_output_directory_under_a_file_is_refused_before_any_work(
    tmp_path, capsys, train_calls, command, under
):
    # each subcommand claims its outputs before it loads an input or trains,
    # so a file where its output directory belongs ends it in one `io:` line
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"], doc["frequencies"] = ["TAG"], ["once"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for stage in ("pretrain", "make-donor", "run"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = str(blocker / "sub" if under else blocker)
    if command == "compare-masks":
        mask = os.path.join(doc["out"], "runs", "tag_once_seed0.padm")
        argv = [command, mask, mask, "--out", out]
    elif command == "report":
        argv = [command, doc["out"], "--out", out]
    else:  # a second config, the same but for its out
        blocked_cfg = tmp_path / "blocked.json"
        blocked_cfg.write_text(json.dumps({**doc, "out": out}))
        argv = [command, "--config", str(blocked_cfg)]
    before = all_paths(tmp_path)
    capsys.readouterr()
    train_calls.clear()
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"io: cannot write {blocker}: not a directory"
    assert train_calls == []
    assert all_paths(tmp_path) == before


@pytest.mark.parametrize("command, output", [
    ("run", "runs/dft_seed0.pada"),
    ("run", "table.json"),
    ("report", "summary.json"),
    ("compare-masks", "masks/mask_report.json"),
])
def test_an_output_that_is_not_a_file_is_refused_before_any_work(
    tmp_path, capsys, train_calls, command, output
):
    # no file can replace a directory, so, with or without --force, a subcommand that went on
    # would train, and remove the files it replaces, before its write failed
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["strategies"], doc["frequencies"] = ["TAG"], ["once"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for stage in ("pretrain", "make-donor", "run"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    blocked = Path(doc["out"], output)
    if blocked.exists():
        blocked.unlink()
    blocked.mkdir(parents=True)
    mask = os.path.join(doc["out"], "runs", "tag_once_seed0.padm")
    argv = {
        "run": ["run", "--config", str(cfg_path), "--force"],
        "report": ["report", doc["out"]],
        "compare-masks": ["compare-masks", mask, mask, "--out", str(blocked.parent)],
    }[command]
    before = all_paths(tmp_path)
    capsys.readouterr()
    train_calls.clear()
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"io: cannot write {blocked}: not a file"
    assert train_calls == []
    assert all_paths(tmp_path) == before


def test_report_without_table_is_config_error(tmp_path, capsys):
    os.makedirs(tmp_path / "exp" / "runs")
    assert main(["report", str(tmp_path / "exp")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("config:")
    assert "table.json" in err


def table_text(seeds, *cells):
    """table.json's text for ``seeds`` and rows of the (strategy, frequency) ``cells``."""
    rows = [{"strategy": s, "frequency": f, "mean_error": 0.25, "per_seed": [0.25] * len(seeds)}
            for s, f in cells]
    return json.dumps({"seeds": seeds, "rows": rows})


@pytest.mark.parametrize(
    "text, message",
    [
        ("{'rows': []}", "not JSON (Expecting property name"),
        ("{}", "missing field: seeds"),
        ('{"seeds": [0], "rows": [{"strategy": "TAG"}]}', "missing field: rows[0].frequency"),
        ("[]", "the table must be an object, got []"),
        # a run listed twice would be counted twice in summary.json and events.csv
        (table_text([0, 3, 0], ("TAG", "once")), "lists run tag_once_seed0 twice"),
        (table_text([3], ("DFT", "-"), ("TAG", "once"), ("DFT", "-")), "lists run dft_seed3 twice"),
        # a run no `pada run` writes, and a run whose log is not under runs/
        (table_text([0], ("TAX", "once")), "lists run 'tax_once_seed0', which no `pada run` writes"),
        (table_text([-1], ("DFT", "-")), "seeds must be a list, each a non-negative integer, got [-1]"),
        (table_text([1], ("TAG", "once")), "lists run tag_once_seed1, but "),
    ],
)
def test_report_refuses_a_malformed_table_as_format_error(tmp_path, capsys, text, message):
    os.makedirs(tmp_path / "exp" / "runs")
    table_json = tmp_path / "exp" / "table.json"
    table_json.write_text(text, encoding="utf-8")
    assert main(["report", str(tmp_path / "exp")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"format: {table_json}: {message}")


def test_taw_masks_rank_the_seed_fine_tune(tmp_path):
    from pada.data import gen_domain_shift
    from pada.pruning import compute_ump_mask, load_mask
    from pada.trainer import finetune_supervised

    cfg = prep(tmp_path, seeds=(3,))
    cmd_run(cfg)
    pre = load_checkpoint(os.path.join(cfg.out, "pretrained.pada"))
    target = gen_domain_shift(cfg.task_seed, cfg.task).target_labeled
    finetuned = finetune_supervised(pre, target, replace(cfg.target, seed=3))
    for freq, sched in cfg.schedules.items():
        r1 = sched.rates[0]
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


def test_default_config_is_the_demo_config():
    # the benchmark builds its workloads from default_config(); the demo file must match
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "config_default.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == default_config()


@pytest.mark.parametrize("seeds", ["10", 10, [True], [1.7], [0, "1"], [float("inf")]])
def test_config_seeds_must_be_a_list_of_integers(tmp_path, capsys, seeds):
    doc = small_config(str(tmp_path / "exp"))
    doc["seeds"] = seeds
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["pretrain", "--config", cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config: {cfg_path}: seeds must be")
    assert not os.path.exists(doc["out"])


def test_config_seeds_accept_integral_numbers(tmp_path):
    doc = small_config(str(tmp_path / "exp"))
    doc["seeds"] = [0, 2.0, 3]
    assert parse_config(doc).seeds == [0, 2, 3]


@pytest.mark.parametrize(
    "field, value",
    [
        ("include_dft", "false"),
        ("include_dft", 0),
        ("schedule.interval", 2.5),
        ("schedule.total_updates", 2000.7),
        ("schedule.total_updates", True),
        ("task.seed", "7"),
        ("target.batch", 8.5),
    ],
)
def test_config_refuses_coerced_values(tmp_path, capsys, field, value):
    doc = small_config(str(tmp_path / "exp"))
    *parents, key = field.split(".")
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["pretrain", "--config", cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config: {cfg_path}: {field} must be ")
    assert err.endswith(f", got {value!r}")
    assert not os.path.exists(doc["out"])


def test_config_integers_accept_integral_numbers(tmp_path):
    doc = small_config(str(tmp_path / "exp"))
    doc["task"]["seed"], doc["target"]["batch"] = 7.0, 8.0
    doc["schedule"]["total_updates"], doc["schedule"]["interval"] = 60.0, 20.0
    cfg = parse_config(doc)
    assert cfg == parse_config(small_config(str(tmp_path / "exp")))
    values = (cfg.task_seed, cfg.target.batch, cfg.target.updates, cfg.schedules["once"].interval)
    assert all(type(v) is int for v in values)


def test_config_refuses_unknown_task_field(tmp_path, capsys):
    doc = small_config(str(tmp_path / "exp"))
    doc["task"]["foo"] = 1
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["pretrain", "--config", cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"config: {cfg_path}: unknown field: task.foo"
    assert not os.path.exists(doc["out"])


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"kind": "layer", "name": "layers.0.weight"}\n', "unknown record kind 'layer'"),
        ('{"update": 5}\n', "unknown record kind None"),
        ("[1]\n", "the record must be an object, got [1]"),
        ("5\n", "the record must be an object, got 5"),
        ('{"kind": "prune", "update": 5}\n', "missing field: rate"),
        ('{"kind": "prune", "upd', "Unterminated string"),
    ],
)
def test_report_refuses_malformed_log_records(tmp_path, capsys, line, message):
    cfg = prep(tmp_path, seeds=(0,))
    cmd_run(cfg)
    path = os.path.join(cfg.out, "runs", "tag_once_seed0.jsonl")
    with open(path, "a", encoding="utf-8") as fh:  # after one prune record and the final one
        fh.write(line)
    assert main(["report", cfg.out]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("format:")
    assert "tag_once_seed0.jsonl, line 3: " in err and message in err



def test_report_cannot_read_a_listed_log_that_is_a_directory(tmp_path, capsys):
    # the log is there, so it is not missing, but no file can be read from it
    cfg = prep(tmp_path, seeds=(0,))
    cmd_run(cfg)
    path = Path(cfg.out, "runs", "tag_once_seed0.jsonl")
    path.unlink()
    path.mkdir()
    assert main(["report", cfg.out]) == 1
    assert capsys.readouterr().err.strip() == f"io: cannot read {path}: Is a directory"


def refuse_edited_log(tmp_path, capsys, edit):
    """The one ``format:`` line of ``pada report`` after ``edit`` rewrote a log's lines.

    The log is ``tag_once_seed0.jsonl``: one prune record, then the final one.
    """
    cfg = prep(tmp_path, seeds=(0,))
    cmd_run(cfg)
    path = Path(cfg.out, "runs", "tag_once_seed0.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 2
    path.write_text("".join(edit(lines)), encoding="utf-8")
    assert main(["report", cfg.out]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"format: {path}, line ")
    return err


DROP = object()
BAD_FINALS = [  # (field, its new value or DROP, the message)
    ("seed", DROP, "missing field: seed"),
    ("strategy", DROP, "missing field: strategy"),
    ("total_updates", DROP, "missing field: total_updates"),
    ("error_rate", "x", "error_rate must be a number in [0, 1], got 'x'"),
    # json reads NaN and Infinity, but no fraction of the evaluation rows is one
    ("error_rate", float("nan"), "error_rate must be a number in [0, 1], got nan"),
    ("error_rate", float("inf"), "error_rate must be a number in [0, 1], got inf"),
    ("error_rate", 1.5, "error_rate must be a number in [0, 1], got 1.5"),
    ("error_rate", -0.1, "error_rate must be a number in [0, 1], got -0.1"),
    ("seed", "0", "seed must be a non-negative integer, got '0'"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("seed", True, "seed must be a non-negative integer, got True"),
    ("total_updates", 60.5, "total_updates must be a non-negative integer, got 60.5"),
    ("frequency", None, "frequency must be a string, got None"),
    ("strategy", 3, "strategy must be a string, got 3"),
    ("train_loss", [0.5], "train_loss must be a number, got [0.5]"),
    ("final_sparsity", "0.4", "final_sparsity must be a number, got '0.4'"),
    # json reads NaN and Infinity, which would reach summary.json as written
    ("final_sparsity", float("nan"),
     "final_sparsity must be a number, got nan"),
    ("train_loss", float("inf"), "train_loss must be a number, got inf"),
    ("note", "hand-added", "unknown field: note"),
]


@pytest.mark.parametrize(
    "key, value, message",
    BAD_FINALS,
    ids=[f"{k}={'drop' if v is DROP else repr(v)}" for k, v, _ in BAD_FINALS],
)
def test_report_refuses_a_malformed_final_record(tmp_path, capsys, key, value, message):
    def edit(lines):
        final = json.loads(lines[1])
        if value is DROP:
            del final[key]
        else:
            final[key] = value
        return [lines[0], json.dumps(final) + "\n"]

    err = refuse_edited_log(tmp_path, capsys, edit)
    assert err.endswith(f"line 2: {message}")


def test_report_refuses_a_listed_run_that_was_not_scored(tmp_path, capsys):
    # every `pada run` run is scored; a seed without an error rate would drop
    # out of its cell's mean in summary.json but not in table.json
    cfg = prep(tmp_path, seeds=(0, 1))
    cmd_run(cfg)
    path = Path(cfg.out, "runs", "tag_once_seed1.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    final = json.loads(lines[-1])
    del final["error_rate"]
    path.write_text("".join(lines[:-1]) + json.dumps(final) + "\n", encoding="utf-8")
    assert main(["report", cfg.out]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"format: {path}: the final record has no error_rate"
    assert not Path(cfg.out, "summary.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:1], "line 2: the log ends without a final record"),
        (lambda lines: [], "line 1: the log ends without a final record"),
        (lambda lines: lines[::-1], "line 2: prune record after the final record of line 1"),
        (lambda lines: lines + lines[1:], "line 3: final record after the final record of line 2"),
    ],
    ids=["no-final", "empty", "prune-after-final", "two-finals"],
)
def test_report_refuses_a_log_not_ending_in_one_final_record(tmp_path, capsys, edit, message):
    assert refuse_edited_log(tmp_path, capsys, edit).endswith(message)


BAD_PRUNES = [  # (field, its new value or DROP, the message)
    ("rate", DROP, "missing field: rate"),
    ("train_loss", DROP, "missing field: train_loss"),
    ("note", "hand-added", "unknown field: note"),
    ("update", "0", "update must be a non-negative integer, got '0'"),
    ("update", -500, "update must be a non-negative integer, got -500"),
    ("update", 0.5, "update must be a non-negative integer, got 0.5"),
    ("rate", "x", "rate must be a number, got 'x'"),
    ("sparsity_before", None, "sparsity_before must be a number, got None"),
    ("sparsity_after", True, "sparsity_after must be a number, got True"),
    ("train_loss", [1.0], "train_loss must be a number, got [1.0]"),
    # json reads NaN and Infinity, which would reach events.csv as written
    ("rate", float("nan"), "rate must be a number, got nan"),
    ("train_loss", float("-inf"), "train_loss must be a number, got -inf"),
]


@pytest.mark.parametrize(
    "key, value, message",
    BAD_PRUNES,
    ids=[f"{k}={'drop' if v is DROP else repr(v)}" for k, v, _ in BAD_PRUNES],
)
def test_report_refuses_a_malformed_prune_record(tmp_path, capsys, key, value, message):
    # a prune record's fields reach events.csv as written, so each is type-checked
    def edit(lines):
        event = json.loads(lines[0])
        if value is DROP:
            del event[key]
        else:
            event[key] = value
        return [json.dumps(event) + "\n", lines[1]]

    assert refuse_edited_log(tmp_path, capsys, edit).endswith(f"line 1: {message}")


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished one-seed `pada run` with its `pada report`; tests edit copies of it."""
    cfg = prep(tmp_path_factory.mktemp("finished"), seeds=(0,))
    cmd_run(cfg)
    cmd_report(cfg.out)
    return Path(cfg.out)


def feed(tmp_path, capsys, finished_run, site, key, value):
    """Set dotted ``key`` (DROP: delete it) of one JSON input to ``value`` and run the command
    reading it: ``pretrain`` for the "config", ``report`` for "table.json" or for the "prune" or
    "final" record of ``tag_once_seed0.jsonl``.  Returns the exit code, the output directory
    and stderr, which on a refusal is one line whose location is checked and cut off."""
    out = tmp_path / "exp"
    if site == "config":
        path, lines, at = tmp_path / "config.json", [json.dumps(small_config(str(out)))], 0
        argv, where = ["pretrain", "--config", str(path)], f"config: {path}: "
    else:
        shutil.copytree(finished_run, out)
        path = out / ("table.json" if site == "table.json" else "runs/tag_once_seed0.jsonl")
        text = path.read_text(encoding="utf-8")
        lines = [text] if site == "table.json" else text.splitlines()
        at = {"table.json": 0, "prune": 0, "final": len(lines) - 1}[site]
        argv = ["report", str(out)]
        where = f"format: {path}: " if site == "table.json" else f"format: {path}, line {at + 1}: "
    doc = json.loads(lines[at])
    *parents, last = key.split(".")
    parent = doc
    for name in parents:
        parent = parent[int(name)] if isinstance(parent, list) else parent[name]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    lines[at] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(argv)
    err = capsys.readouterr().err.strip()
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(where), (where, err)
        err = err[len(where):]
    return code, out, err


# one bad value, fed into the config, a run log and table.json: (input, dotted key, value, refusal)
ONE_WORDING = {
    "negative-integer": [
        ("config", "task.seed", -1, "task.seed must be a non-negative integer, got -1"),
        ("final", "seed", -1, "seed must be a non-negative integer, got -1"),
        ("table.json", "seeds", [-1], "seeds must be a list, each a non-negative integer, got [-1]"),
    ],
    "nan": [
        ("config", "target.lr", float("nan"), "target.lr must be a number, got nan"),
        ("prune", "train_loss", float("nan"), "train_loss must be a number, got nan"),
        ("table.json", "rows.0.mean_error", float("nan"),
         "rows[0].mean_error must be a number, got nan"),
    ],
    "string": [
        ("config", "pretrain.lr", "x", "pretrain.lr must be a number, got 'x'"),
        ("prune", "rate", "x", "rate must be a number, got 'x'"),
        ("table.json", "rows.0.per_seed", ["x"], "rows[0].per_seed must be a list, each a number, "
                                                 "got ['x']"),
    ],
    "unknown-key": [
        ("config", "note", "hand-added", "unknown field: note"),
        ("final", "note", "hand-added", "unknown field: note"),
        ("table.json", "rows.0.note", "hand-added", "unknown field: rows[0].note"),
    ],
    "missing-key": [
        ("config", "target.lr", DROP, "missing field: target.lr"),
        ("prune", "rate", DROP, "missing field: rate"),
        ("table.json", "seeds", DROP, "missing field: seeds"),
    ],
}


@pytest.mark.parametrize("case", ONE_WORDING)
def test_every_json_input_refuses_a_bad_value_in_one_wording(
    tmp_path, capsys, finished_run, train_calls, case
):
    # params.Fields checks the config, each log record and table.json, so after
    # its location each refusal reads the same
    for site, key, value, message in ONE_WORDING[case]:
        (tmp_path / site).mkdir()
        code, _, err = feed(tmp_path / site, capsys, finished_run, site, key, value)
        assert (code, err) == (1, message), site
    assert train_calls == []


@pytest.mark.parametrize("site, key, value", [
    ("config", "schedule.total_updates", 60.0),
    ("final", "total_updates", 60.0),
    ("prune", "update", 0.0),
    ("table.json", "seeds", [0.0]),
    ("prune", "rate", 40),  # a number written as an integer reads as a float: events.csv says 40.0
])
def test_every_json_input_reads_an_integral_number_as_written_by_pada(
    tmp_path, capsys, finished_run, site, key, value
):
    code, out, err = feed(tmp_path, capsys, finished_run, site, key, value)
    assert (code, err) == (0, "")
    if site != "config":  # report wrote what it writes from the untouched run
        for name in ("events.csv", "summary.json"):
            assert (out / name).read_bytes() == (finished_run / name).read_bytes(), name


def test_report_names_the_log_and_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    cfg = prep(tmp_path, seeds=(0,))
    cmd_run(cfg)
    path = Path(cfg.out, "runs", "tag_once_seed0.jsonl")
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + lines[1].replace(b'"final"', b'"fin\xffal"'))
    assert main(["report", cfg.out]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"format: {path}, line 2: 'utf-8' codec can't decode byte 0xff")


def test_config_that_is_not_utf8_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(json.dumps(small_config(str(tmp_path / "exp"))).encode() + b"\xff")
    assert main(["pretrain", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config: {cfg_path}: ") and "can't decode byte 0xff" in err
    assert not (tmp_path / "exp").exists()


def test_report_refuses_a_log_of_another_run_than_table_json_lists(tmp_path, capsys):
    # each log's final strategy, frequency and seed must be those of the run
    # table.json lists it for; a log of another run would drop or double a run
    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1, 3))
    doc["strategies"], doc["frequencies"] = ["TAG", "TAW"], ["once", "iterative"]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    cmd_run(cfg)
    assert main(["report", cfg.out, "--out", str(tmp_path / "report")]) == 0
    for name, other in [
        ("tag_once_seed0", "tag_once_seed3"),
        ("tag_once_seed0", "tag_iterative_seed0"),
        ("tag_once_seed0", "taw_once_seed0"),
        ("dft_seed1", "dft_seed0"),
    ]:
        copy = tmp_path / f"{name}-{other}"
        shutil.copytree(cfg.out, copy)
        shutil.copyfile(copy / "runs" / f"{other}.jsonl", copy / "runs" / f"{name}.jsonl")
        assert main(["report", str(copy)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"format: {copy / 'runs' / name}.jsonl: a log of run ")
        assert not (copy / "summary.json").exists()


def mutated(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one bit flipped, cut short, or with 1-8 random bytes inserted."""
    kind, at = rng.randrange(3), rng.randrange(len(data))
    if kind == 0:
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == 1:
        return data[:at]
    return data[:at] + rng.randbytes(rng.randint(1, 8)) + data[at:]


def test_corrupted_inputs_end_in_one_line_naming_the_file(tmp_path, capsys):
    # each mutation of a file `report` or `compare-masks` reads either still
    # reads as a file of its kind, or ends in one line naming that file
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["arch"]["hidden"] = [4, 4]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    cmd_run(cfg)
    runs, out = Path(cfg.out, "runs"), str(tmp_path / "out")
    cases = [
        (Path(cfg.out, "table.json"), ["report", cfg.out, "--out", out]),
        (runs / "cd-taw_iterative_seed0.jsonl", ["report", cfg.out, "--out", out]),
        (runs / "tag_once_seed0.padm",
         ["compare-masks", str(runs / "tag_once_seed0.padm"), str(runs / "taw_once_seed0.padm"),
          "--out", out, "--force"]),
    ]
    rng = random.Random(20)
    for path, argv in cases:
        original = path.read_bytes()
        for _ in range(300):
            path.write_bytes(mutated(original, rng))
            code = main(argv)
            err = capsys.readouterr().err.strip()
            if code == 0:
                assert err == ""
            else:
                assert len(err.splitlines()) == 1, err
                assert err.startswith(("format: ", "structure: ")) and path.name in err, err
        path.write_bytes(original)


def test_corrupted_checkpoints_end_run_in_one_line_naming_the_file(tmp_path, capsys, train_calls):
    # each mutation of a checkpoint `run` reads either still fits and trains,
    # or is refused before any update in one line naming that file
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["arch"]["hidden"] = [4, 4]
    doc["schedule"]["total_updates"], doc["schedule"]["interval"] = 8, 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("pretrain", "make-donor"):
        assert main([command, "--config", str(cfg_path)]) == 0
    rng = random.Random(20)
    for name in ("pretrained.pada", "donor.pada"):
        path = Path(doc["out"], name)
        original = path.read_bytes()
        for _ in range(300):
            path.write_bytes(mutated(original, rng))
            train_calls.clear()
            code = main(["run", "--config", str(cfg_path), "--force"])
            err = capsys.readouterr().err.strip()
            if code == 0:
                assert err == ""
            else:
                assert len(err.splitlines()) == 1, err
                assert err.startswith(("format: ", "structure: ")) and name in err, err
                assert train_calls == [], err
        path.write_bytes(original)


def test_corrupted_checkpoints_end_make_donor_in_one_line_naming_the_file(
    tmp_path, capsys, train_calls
):
    # each mutation of the pretrained model either still fits and trains the
    # donor, or is refused before any update in one line naming that file
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["arch"]["hidden"] = [4, 4]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    path = Path(doc["out"], "pretrained.pada")
    original, rng = path.read_bytes(), random.Random(20)
    for _ in range(300):
        path.write_bytes(mutated(original, rng))
        train_calls.clear()
        code = main(["make-donor", "--config", str(cfg_path), "--force"])
        err = capsys.readouterr().err.strip()
        if code == 0:
            assert err == ""
        else:
            assert len(err.splitlines()) == 1, err
            assert err.startswith(("format: ", "structure: ")) and path.name in err, err
            assert train_calls == [], err


def test_corrupted_configs_end_run_in_one_line_naming_the_file(tmp_path, capsys, train_calls):
    # over a finished run, each mutation of its config is refused in one line
    # naming the config, or is accepted and stops at the collision check; a
    # mutated `out` names no finished run, so there `run` cannot read the
    # pretrained model.  Nothing trains.
    doc = small_config(str(tmp_path / "exp"), seeds=(0,))
    doc["arch"]["hidden"] = [4, 4]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("pretrain", "make-donor", "run"):
        assert main([command, "--config", str(cfg_path)]) == 0
    collision = f"config: output exists: {Path(doc['out'], 'table.csv')} (use --force to overwrite)"
    original, rng = cfg_path.read_bytes(), random.Random(20)
    capsys.readouterr()
    train_calls.clear()
    for _ in range(300):
        cfg_path.write_bytes(mutated(original, rng))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1, err
        try:
            cfg = load_config(str(cfg_path))
        except ConfigError as exc:
            assert err == f"config: {exc}" and err.startswith(f"config: {cfg_path}: "), err
            continue
        if cfg.out == doc["out"]:
            assert err == collision, err
        else:
            assert err.startswith(f"io: cannot read {Path(cfg.out, 'pretrained.pada')}: "), err
    assert train_calls == []


def one_cell_at_a_time(pretrained, slots, target_data, cfg, donor=None, eval_data=None):
    """A drop-in for ``run_cells`` that calls run_dft/run_pada once per slot, in order.

    As in ``run_cells``, TAW ranks its seed's DFT model: ``run_pada`` trains
    it, and the initial mask is ``initial_model``'s for ``run_dft``'s model.
    """
    from pada.schedule import run_dft, run_pada
    from pada.strategies import initial_model

    outcomes = []
    for seed, strategy, sched in slots:
        seed_cfg = replace(cfg, seed=seed)
        try:
            if sched is None:
                outcomes.append((*run_dft(pretrained, target_data, seed_cfg, eval_data), None))
                continue
            model, log = run_pada(pretrained, strategy, sched, target_data, seed_cfg,
                                  donor=donor, eval_data=eval_data)
            ranked = run_dft(pretrained, target_data, seed_cfg)[0] if strategy == "TAW" else None
            _, mask = initial_model(
                pretrained, strategy, sched.rates[0], finetuned=ranked, donor=donor
            )
            outcomes.append((model, log, mask))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.bit_identity
def test_stacked_run_equals_one_cell_at_a_time(tmp_path, monkeypatch):
    import pada.cli

    cfg = prep(tmp_path, seeds=(0, 1, 2))

    def outputs():
        cmd_run(cfg, force=True)
        run_dir = os.path.join(cfg.out, "runs")
        files = {f"runs/{n}": os.path.join(run_dir, n) for n in os.listdir(run_dir)}
        files.update({n: os.path.join(cfg.out, n) for n in ("table.csv", "table.json")})
        return {name: Path(path).read_bytes() for name, path in files.items()}

    stacked = outputs()
    monkeypatch.setattr(pada.cli, "run_cells", one_cell_at_a_time)
    serial = outputs()
    # per seed: 10 logs, 10 models and the 9 initial masks of the PADA cells
    assert len(stacked) == 3 * (10 + 10 + 9) + 2
    assert sorted(stacked) == sorted(serial)
    for name in stacked:
        assert stacked[name] == serial[name], name


def test_seed_independent_masks_are_ranked_once_per_grid(tmp_path, monkeypatch, workers):
    # TAG ranks the pretrained model and CD-TAW the donor, whatever the seed;
    # TAW ranks each seed's own fine-tune.  Every process that ranks a mask,
    # a forked worker too, appends its source to one file
    import pada.strategies

    cfg = prep(tmp_path, seeds=(0, 1, 2))
    ranked = tmp_path / "ranked.txt"
    real = pada.strategies.compute_ump_mask

    def counting(ps, rate, source):
        with open(ranked, "a", encoding="utf-8") as fh:
            fh.write(source + "\n")
        return real(ps, rate, source=source)

    monkeypatch.setattr(pada.strategies, "compute_ump_mask", counting)
    r1s = {sched.rates[0] for sched in cfg.schedules.values()}
    assert len(r1s) == 2
    for n in (1, 2):
        ranked.write_text("")
        workers(n)
        cmd_run(cfg, force=True)
        sources = ranked.read_text().splitlines()
        assert sources.count("TAG") == sources.count("CD-TAW") == len(r1s), n
        assert sources.count("TAW") == 3 * len(r1s), n


def diverging_grid(tmp_path):
    """Seeds 1 and 6 of a relu TAW/CD-TAW grid at lr 3000, where some cells diverge.

    Returns the config document, the parsed config and
    (pretrained, target data, target train config, donor).
    """
    from pada.data import gen_domain_shift

    doc = small_config(str(tmp_path / "exp"), seeds=(1, 6))
    doc["arch"]["activation"] = "relu"
    doc["target"]["lr"] = 3000.0
    doc["strategies"] = ["TAW", "CD-TAW"]
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    pre = load_checkpoint(os.path.join(cfg.out, "pretrained.pada"))
    donor = load_checkpoint(os.path.join(cfg.out, "donor.pada"))
    target = gen_domain_shift(cfg.task_seed, cfg.task).target_labeled
    return doc, cfg, (pre, target, cfg.target, donor)


def test_divergence_reports_the_first_failing_cell_in_table_order(tmp_path, capsys):
    # at this learning rate the TAW cells and CD-TAW iterative diverge, the
    # latter one update before the TAW cells; serially, TAW once fails first
    from pada.schedule import run_pada

    doc, cfg, (pre, target, tcfg, donor) = diverging_grid(tmp_path)
    tcfg = replace(tcfg, seed=1)
    failures = []
    for strategy, freq in cfg.cells()[1:]:
        try:
            run_pada(pre, strategy, cfg.schedules[freq], target, tcfg, donor=donor)
        except Exception as exc:
            failures.append((strategy, freq, exc))
    (strategy, freq, first), later = failures[0], failures[1:]
    assert strategy == "TAW"
    assert any(s == "CD-TAW" and exc.step < first.step for s, _, exc in later)

    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"training: run {strategy.lower()}_{freq}_seed1: {first}"


@pytest.mark.bit_identity
def test_stacked_divergence_leaves_survivors_as_if_alone(tmp_path):
    # seed 1, wave 1: CD-TAW iterative diverges at update 5 beside DFT, CD-TAW
    # once and CD-TAW dynamic; wave 2: TAW once and TAW dynamic diverge at
    # update 6 beside TAW iterative.  Seed 6 shares both stacks: its DFT
    # diverges at update 5 beside its surviving CD-TAW cells, and its TAW
    # cells, which rank that DFT model, end with its failure.  The survivors
    # of either seed must not notice the dead slots.
    from pada.schedule import run_cells
    from pada.trainer import TrainingDivergedError

    _, cfg, (pre, target, tcfg, donor) = diverging_grid(tmp_path)
    runs = [(seed, s, f) for seed in cfg.seeds for s, f in cfg.cells()]
    slots = [(seed, s, None if s == "DFT" else cfg.schedules[f]) for seed, s, f in runs]
    stacked = run_cells(pre, slots, target, tcfg, donor=donor)
    serial = one_cell_at_a_time(pre, slots, target, tcfg, donor=donor)
    diverged = {
        run: outcome.step
        for run, outcome in zip(runs, stacked)
        if isinstance(outcome, TrainingDivergedError)
    }
    assert diverged == {
        (1, "CD-TAW", "iterative"): 5,
        (1, "TAW", "once"): 6,
        (1, "TAW", "dynamic_iterative"): 6,
        (6, "DFT", "-"): 5,
        (6, "TAW", "once"): 5,
        (6, "TAW", "iterative"): 5,
        (6, "TAW", "dynamic_iterative"): 5,
    }
    for run, a, b in zip(runs, stacked, serial):
        if isinstance(a, Exception):
            assert type(b) is type(a) and b.step == a.step, run
            continue
        (model_a, log_a, mask_a), (model_b, log_b, mask_b) = a, b
        assert model_a == model_b, run
        assert log_a.events == log_b.events and log_a.final == log_b.final, run
        assert mask_a == mask_b, run


@pytest.mark.bit_identity
def test_run_cells_trains_the_dft_model_taw_ranks(tmp_path):
    # only TAW slots, for two seeds, and no model to rank: run_cells trains
    # each seed's DFT model, ranks it and returns nothing of it
    from pada.data import gen_domain_shift
    from pada.schedule import run_cells, run_dft, run_pada
    from pada.strategies import initial_model

    cfg = prep(tmp_path, seeds=(0, 1))
    pre = load_checkpoint(os.path.join(cfg.out, "pretrained.pada"))
    task = gen_domain_shift(cfg.task_seed, cfg.task)
    target, scored = task.target_labeled, task.target_eval
    slots = [(seed, "TAW", sched) for seed in cfg.seeds for sched in cfg.schedules.values()]
    outcomes = run_cells(pre, slots, target, cfg.target, eval_data=scored)
    assert len(outcomes) == len(slots)
    cmd_run(cfg)
    run_dir = os.path.join(cfg.out, "runs")
    finetuned = {}
    for seed in cfg.seeds:
        finetuned[seed], log = run_dft(pre, target, replace(cfg.target, seed=seed), scored)
        assert log.final == read_log_jsonl(os.path.join(run_dir, f"dft_seed{seed}.jsonl")).final
        assert list(log.final)[-1] == "seed"
    for (seed, _, sched), (model, log, mask) in zip(slots, outcomes):
        alone, alone_log = run_pada(pre, "TAW", sched, target, replace(cfg.target, seed=seed),
                                    eval_data=scored)
        _, alone_mask = initial_model(pre, "TAW", sched.rates[0], finetuned=finetuned[seed])
        assert model == alone
        assert log.events == alone_log.events and log.final == alone_log.final
        assert mask == alone_mask
        written = read_log_jsonl(os.path.join(run_dir, f"taw_{sched.freq}_seed{seed}.jsonl"))
        assert alone_log.final == written.final
        assert written.final["seed"] == seed


def grid_inputs(cfg):
    """(pretrained, donor, target data, eval data) of a prepared grid config."""
    from pada.data import gen_domain_shift

    pre = load_checkpoint(os.path.join(cfg.out, "pretrained.pada"))
    donor = load_checkpoint(os.path.join(cfg.out, "donor.pada"))
    task = gen_domain_shift(cfg.task_seed, cfg.task)
    return pre, donor, task.target_labeled, task.target_eval


def grid_slots(cfg):
    return [
        (seed, s, None if s == "DFT" else cfg.schedules[f])
        for seed in cfg.seeds
        for s, f in cfg.cells()
    ]


@pytest.mark.bit_identity
def test_run_cells_finishes_each_run_as_one_cell_at_a_time(tmp_path):
    # DFT, TAG, TAW and CD-TAW over two seeds: the runs each wave finishes
    # carry the bits, events, final records and masks of one cell at a time
    from pada.schedule import run_cells

    cfg = prep(tmp_path, seeds=(0, 1))
    pre, donor, target, scored = grid_inputs(cfg)
    slots = grid_slots(cfg)
    stacked = run_cells(pre, slots, target, cfg.target, donor, scored)
    serial = one_cell_at_a_time(pre, slots, target, cfg.target, donor, scored)
    assert len(stacked) == len(serial) == 2 * 10
    for slot, (model_a, log_a, mask_a), (model_b, log_b, mask_b) in zip(slots, stacked, serial):
        assert model_a == model_b, slot
        assert json.dumps([asdict(e) for e in log_a.events]) == json.dumps(
            [asdict(e) for e in log_b.events]
        ), slot
        assert json.dumps(log_a.final) == json.dumps(log_b.final), slot
        assert list(log_a.final) == [
            "total_updates", "strategy", "frequency", "final_sparsity", "train_loss",
            "error_rate", "seed",
        ]
        assert mask_a == mask_b, slot


@pytest.mark.bit_identity
def test_hidden_dft_model_is_ranked_but_never_scored(tmp_path, monkeypatch, workers):
    # without DFT cells, run_cells trains each seed's DFT model for its TAW
    # slots, whose masks rank exactly that model, and scores only the slots
    # it was given; one block, so that every run is scored in this process
    import pada.schedule
    from pada.pruning import compute_ump_mask
    from pada.schedule import run_cells, run_dft

    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1))
    doc["include_dft"] = False
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    pre, donor, target, scored = grid_inputs(cfg)
    slots = grid_slots(cfg)
    finished = []
    real = pada.schedule._final_record

    def recording(slot, *args):
        finished.append(slot)
        return real(slot, *args)

    monkeypatch.setattr(pada.schedule, "_final_record", recording)
    workers(1)
    outcomes = run_cells(pre, slots, target, cfg.target, donor, scored)
    assert sorted(slots.index(slot) for slot in finished) == list(range(len(slots)))
    assert len(outcomes) == len(slots) == 2 * 9
    dft = {seed: run_dft(pre, target, replace(cfg.target, seed=seed))[0] for seed in cfg.seeds}
    for (seed, strategy, sched), (_, log, mask) in zip(slots, outcomes):
        assert log.final["seed"] == seed
        if strategy == "TAW":
            assert mask == compute_ump_mask(dft[seed], sched.rates[0])


def test_waves_score_only_after_releasing_their_stack(tmp_path, monkeypatch, workers):
    # scoring allocates its own buffers, so a wave's stack must be gone by
    # then; one block, so that both waves run in this process
    import weakref

    import pada.schedule
    from pada.schedule import run_cells
    from pada.trainer import ModelStack

    made, live = [], weakref.WeakSet()

    class Tracked(ModelStack):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(len(self.flat))
            live.add(self)

    live_when_scoring = []
    real = pada.schedule._final_record

    def scoring(*args):
        live_when_scoring.append(len(live))
        return real(*args)

    monkeypatch.setattr(pada.schedule, "ModelStack", Tracked)
    monkeypatch.setattr(pada.schedule, "_final_record", scoring)
    workers(1)
    cfg = prep(tmp_path, seeds=(0, 1))
    pre, donor, target, scored = grid_inputs(cfg)
    outcomes = run_cells(pre, grid_slots(cfg), target, cfg.target, donor, scored)
    assert not any(isinstance(o, Exception) for o in outcomes)
    assert made == [2 * 7, 2 * 3]
    assert live_when_scoring == [0] * 2 * 10


def counting_blocks(monkeypatch):
    """The number of blocks each ``run_cells`` call trains, in order."""
    import pada.schedule

    counts, real = [], pada.schedule._in_workers

    def counting(work, blocks):
        counts.append(len(blocks))
        return real(work, blocks)

    monkeypatch.setattr(pada.schedule, "_in_workers", counting)
    return counts


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.bit_identity
@pytest.mark.parametrize("include_dft", [True, False], ids=["dft", "hidden-dft"])
def test_one_and_two_workers_write_the_same_run_directory(
    tmp_path, monkeypatch, workers, include_dft
):
    # three seeds: with DFT cells, the first block holds seed 0's runs and
    # seed 1's DFT and TAW runs; without, the second block trains the hidden
    # DFT models of seeds 1 and 2
    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1, 2))
    doc["include_dft"] = include_dft
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    blocks = counting_blocks(monkeypatch)
    written = {}
    for n in (1, 2):
        workers(n)
        cmd_run(cfg, force=True)
        written[n] = run_files(cfg.out)
        assert_no_child_left()
    assert blocks == [1, 2]
    cells = 10 if include_dft else 9
    assert len(written[1]) == 2 + 2 + 3 * (cells + cells + 9)
    assert written[1] == written[2]


@pytest.mark.bit_identity
def test_one_and_two_workers_name_the_same_diverged_run(tmp_path, capsys, monkeypatch, workers):
    # seed 6's DFT model diverges at update 5 in the worker's block, before any
    # run of seed 1 in this process, but seed 1's TAW once run comes first in
    # table order, so it is the one named
    from pada.schedule import run_cells

    doc, cfg, (pre, target, tcfg, donor) = diverging_grid(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    slots = grid_slots(cfg)
    blocks = counting_blocks(monkeypatch)
    outcomes, errs = {}, {}
    for n in (1, 2):
        workers(n)
        outcomes[n] = run_cells(pre, slots, target, tcfg, donor)
        assert main(["run", "--config", str(cfg_path)]) == 1
        errs[n] = capsys.readouterr().err.strip()
        assert not os.path.exists(os.path.join(cfg.out, "runs"))
        assert_no_child_left()
    assert blocks == [1, 1, 2, 2]
    assert errs[1] == errs[2] == (
        "training: run taw_once_seed1: training diverged (non-finite loss) at update 6"
    )
    for slot, a, b in zip(slots, outcomes[1], outcomes[2]):
        if isinstance(a, Exception):
            assert type(b) is type(a) and b.step == a.step, slot
            continue
        assert a[0] == b[0] and a[2] == b[2], slot
        assert a[1].events == b[1].events and a[1].final == b[1].final, slot


def raising(exc):
    def fail():
        raise exc
    return fail


@pytest.mark.parametrize("where, fail, want", [
    ("worker", raising(ValueError("a fault in a worker")), "internal: a fault in a worker"),
    ("worker", raising(FormatError("a bad input")), "format: a bad input"),
    ("worker", lambda: os._exit(3), "internal: a training worker ended without its runs (exit code 3)"),
    ("worker", lambda: os.kill(os.getpid(), 9),
     "internal: a training worker ended without its runs (killed by signal 9)"),
    ("parent", raising(ValueError("a fault in block 0")), "internal: a fault in block 0"),
], ids=["worker-raises", "worker-refuses", "worker-exits", "worker-killed", "parent-raises"])
def test_a_failed_block_ends_in_one_line_and_leaves_no_child(
    tmp_path, capsys, monkeypatch, workers, where, fail, want
):
    import pada.schedule

    doc = small_config(str(tmp_path / "exp"), seeds=(0, 1))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("pretrain", "make-donor", "run"):
        assert main([command, "--config", str(cfg_path)]) == 0
    assert_no_child_left()
    before = run_files(doc["out"])
    parent, real = os.getpid(), pada.schedule._run_block

    def failing(*args):
        if (os.getpid() == parent) == (where == "parent"):
            fail()
        return real(*args)

    monkeypatch.setattr(pada.schedule, "_run_block", failing)
    workers(2)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--force"]) == 1
    assert capsys.readouterr().err.strip() == want
    assert_no_child_left()
    assert run_files(doc["out"]) == before


def test_a_failed_fork_closes_its_pipe(tmp_path, monkeypatch, workers):
    import pada.schedule

    cfg = prep(tmp_path, seeds=(0,))
    pre, donor, target, scored = grid_inputs(cfg)
    pipes, real = [], os.pipe

    def pipe():
        pipes.extend(real())
        return pipes[-2:]

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    workers(2)
    with pytest.raises(BlockingIOError):
        pada.schedule.run_cells(pre, grid_slots(cfg), target, cfg.target, donor, scored)
    assert len(pipes) == 2
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert_no_child_left()


def test_each_failure_category_has_one_type():
    # anything else, such as a library ValueError or KeyError, is a fault of
    # pada itself and never passes as a bad input
    from pada.cli import _category
    from pada.params import FormatError, StructureMismatchError
    from pada.schedule import ScheduleError
    from pada.trainer import TrainingDivergedError

    assert _category(FormatError("p.pada: not a PADA checkpoint (bad magic)")) == "format"
    assert _category(StructureMismatchError("p.pada: tensor count differs: 8 vs 6")) == "structure"
    assert _category(TrainingDivergedError(6, "taw_once_seed1")) == "training"
    assert _category(NotADirectoryError("cannot write runs: not a directory")) == "io"
    assert _category(ConfigError("seed list must be nonempty")) == "config"
    for fault in (ValueError("data is empty"), KeyError("cls.bias"),
                  ScheduleError("interval must be positive")):  # load_config wraps a ScheduleError
        assert _category(fault) == "internal"
