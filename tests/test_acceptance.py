"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is seeded and deterministic.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from pada.cli import cmd_make_donor, cmd_pretrain, cmd_run
from pada.config import default_config, parse_config
from pada.data import gen_domain_shift, DomainShiftSpec
from pada.metrics import iou, mma
from pada.params import ParameterSet, Tensor, load_checkpoint, save_checkpoint
from pada.pruning import (
    Mask,
    MaskEntry,
    apply_zeroing,
    compute_ump_mask,
    load_mask,
    prune_count,
    save_mask,
    sparsity,
)
from pada.schedule import PruneSchedule, ScheduleError, run_pada, validate
from pada.strategies import cdtaw_mask, tag_mask, taw_mask
from pada.trainer import (
    ModelArch,
    ModelStack,
    TrainConfig,
    finetune_supervised,
    init_model,
    loss_and_grads,
    sgd_step,
)

ARCH = ModelArch(input_dim=16, hidden=(32, 32), num_classes=6, activation="tanh")


def ok(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_mask_metric_exactness():
    ma = Mask([MaskEntry("w", np.array([True, False, True, False]))])
    mb = Mask([MaskEntry("w", np.array([True, True, False, False]))])
    assert abs(iou(ma, mb) - 1.0 / 3.0) <= 1e-12
    assert mma(ma, mb) == 0.5
    ok("mask-metric exactness (IOU 1/3, MMA 0.5)")


def test_ump_oracle_equivalence_1000_trials():
    rng = np.random.default_rng(1234)
    for trial in range(1000):
        total = int(rng.integers(1, 10_001))
        # split into 1..3 tensors to exercise the global ranking
        cuts = sorted(rng.integers(1, total + 1, size=int(rng.integers(0, 3))).tolist())
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total]) if b - a > 0] or [total]
        vals = rng.normal(size=total)
        if trial % 3 == 0:  # force ties and exact zeros into the pool
            vals = np.round(vals, 1)
        vals32 = vals.astype(np.float32)
        tensors, off = [], 0
        for k, n in enumerate(sizes):
            tensors.append(Tensor(f"t{k}", vals32[off : off + n], prunable=True))
            off += n
        ps = ParameterSet(tensors)
        rate = float(rng.uniform(0, 100))
        mask = compute_ump_mask(ps, rate)
        bits = np.concatenate([e.bits.ravel() for e in mask.entries])

        flat = [float(v) for v in vals32]
        z = math.floor(rate / 100.0 * total)
        order = sorted(range(total), key=lambda i: (abs(flat[i]), i))
        keep = np.ones(total, dtype=bool)
        keep[order[:z]] = False
        assert np.array_equal(bits, keep), f"trial {trial}: mask differs from full-sort oracle"
        assert int(np.count_nonzero(~bits)) == z == prune_count(rate, total)
    ok("UMP oracle equivalence + exact zero counts (1000 randomized trials)")


def test_regrowth_keeps_parameters_trainable():
    task = gen_domain_shift(7, DomainShiftSpec())
    ps = init_model(ARCH, 3)
    zeroed = apply_zeroing(ps, compute_ump_mask(ps, 40.0))
    s0 = sparsity(zeroed)
    _, grads = loss_and_grads(zeroed, task.target_labeled)
    stepped = sgd_step(zeroed, grads, 0.05)
    s1 = sparsity(stepped)
    assert s1 < s0
    regrown = False
    for t0 in zeroed.prunable_tensors():
        was_zero = t0.data == 0.0
        regrown = regrown or bool(np.any(stepped[t0.name].data[was_zero] != 0.0))
    assert regrown
    ok(f"regrowth after one SGD step (sparsity {s0:.3f} -> {s1:.3f})")


def test_schedule_timing_paper_presets():
    task = gen_domain_shift(7, DomainShiftSpec())
    pre = init_model(ARCH, 4)
    cfg = TrainConfig(lr=0.05, batch=16, updates=10000, seed=5)

    sched = PruneSchedule("dynamic_iterative", (40, 20, 10), 1000)
    _, log = run_pada(pre, "TAG", sched, task.target_labeled, cfg)
    assert [e.update for e in log.events] == [0, 1000, 2000]
    assert log.final["total_updates"] == 10000

    sched = PruneSchedule("iterative", (30, 30, 30), 1000)
    _, log = run_pada(pre, "TAG", sched, task.target_labeled, cfg)
    assert len(log.events) == 3

    sched = PruneSchedule("once", (40,), 1000)
    _, log = run_pada(pre, "TAG", sched, task.target_labeled, cfg)
    assert len(log.events) == 1
    ok("schedule timing: dynamic events {0,1000,2000} at N=10000, n=1000; iterative 3; once 1")


def test_schedule_validation_presets():
    with pytest.raises(ScheduleError):
        validate(PruneSchedule("dynamic_iterative", (30, 30, 10), 100), 1000)
    with pytest.raises(ScheduleError):
        validate(PruneSchedule("iterative", (30, 25, 20), 100), 1000)
    validate(PruneSchedule("dynamic_iterative", (30, 25, 20, 10), 1000), 9000)
    ok("schedule validation: bad dynamic/iterative rejected, BASE dynamic preset accepted")


def weights64(ps):
    """Exact float64 copies of every tensor, keyed by name."""
    return {t.name: t.data.astype(np.float64) for t in ps.tensors}


def _finite_difference_max_rel_err(ps, x, target, kind, n_coords=120, eps=1e-4, seed=0):
    # a stack of float64 weights keeps float64 masters: perturbations are exact
    stack = ModelStack([weights64(ps)], kind, ps.meta.get("activation", "tanh"))
    stack.grads(x, target)
    grads = stack.flat_grad.copy()  # the next grads call overwrites flat_grad
    rng = np.random.default_rng(seed)
    names = list(stack.layout)  # the trunk and the head the loss reads
    checked, max_rel = 0, 0.0
    while checked < n_coords:
        name = names[int(rng.integers(len(names)))]
        arr = stack.master[name][0]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        orig = arr[idx]
        arr[idx] = orig + eps
        lp = stack.grads(x, target)[0]
        arr[idx] = orig - eps
        lm = stack.grads(x, target)[0]
        arr[idx] = orig
        fd = (lp - lm) / (2.0 * eps)
        g = float(stack.view(grads, name)[0][idx])
        denom = max(abs(g), abs(fd))
        if denom < 1e-8:
            continue
        checked += 1
        max_rel = max(max_rel, abs(g - fd) / denom)
    return max_rel


def test_gradient_check_both_losses():
    task = gen_domain_shift(7, DomainShiftSpec())
    ps = init_model(ARCH, 6)
    batch = task.target_labeled
    err_ce = _finite_difference_max_rel_err(ps, batch.x, batch.y, "cross_entropy", seed=7)
    assert err_ce <= 1e-4

    rng = np.random.default_rng(8)
    clean = task.source_unlabeled.x[:64]
    noisy = clean + rng.normal(0, 0.3, size=clean.shape)
    err_mse = _finite_difference_max_rel_err(ps, noisy, clean, "mse_reconstruction", seed=9)
    assert err_mse <= 1e-4

    zeroed = apply_zeroing(ps, compute_ump_mask(ps, 40.0))
    err_z = _finite_difference_max_rel_err(zeroed, batch.x, batch.y, "cross_entropy", seed=10)
    assert err_z <= 1e-4
    ok(
        "gradient check vs central differences "
        f"(max rel err: CE {err_ce:.2e}, MSE {err_mse:.2e}, zeroed {err_z:.2e})"
    )


def test_strategy_semantics():
    task = gen_domain_shift(7, DomainShiftSpec())
    pre = init_model(ARCH, 11)

    cfg0 = TrainConfig(lr=0.05, batch=16, updates=0, seed=12)
    finetuned0 = finetune_supervised(pre, task.target_labeled, cfg0)
    assert taw_mask(pre, finetuned0, 40.0) == tag_mask(pre, 40.0)

    donor = init_model(ARCH, 13)
    scaled = pre.copy()
    for t in scaled.tensors:
        t.data = (t.data * 2.5).astype(np.float32)
    assert cdtaw_mask(pre, donor, 40.0) == cdtaw_mask(scaled, donor, 40.0)

    donor4 = ParameterSet([Tensor("w", np.array([9.0, 0.1, 8.0, 7.0], dtype=np.float32).reshape(1, 4))])
    pre4 = ParameterSet([Tensor("w", np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 4))])
    mask = cdtaw_mask(pre4, donor4, 25.0)
    zeroed = apply_zeroing(pre4, mask)
    assert zeroed["w"].data.ravel().tolist() == [1.0, 0.0, 3.0, 4.0]
    ok("strategy semantics: TAW(0 updates) == TAG, CD-TAW scale-invariant and zeroes pretrained")


def _determinism_config(out):
    doc = default_config()
    doc["task"]["source_unlabeled"] = 600
    doc["task"]["source_labeled"] = 600
    doc["task"]["target_labeled"] = 24
    doc["task"]["target_eval"] = 300
    doc["pretrain"]["updates"] = 300
    doc["donor"]["updates"] = 300
    doc["schedule"]["total_updates"] = 600
    doc["schedule"]["interval"] = 200
    doc["seeds"] = [0, 1]
    doc["out"] = out
    return doc


def test_cmd_run_determinism(tmp_path):
    cfg = parse_config(_determinism_config(str(tmp_path / "det")))
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    table_csv, table_json = cmd_run(cfg)
    blobs = {
        table_csv: Path(table_csv).read_bytes(),
        table_json: Path(table_json).read_bytes(),
    }
    run_dir = os.path.join(cfg.out, "runs")
    for f in sorted(os.listdir(run_dir)):
        if f.endswith(".pada"):
            p = os.path.join(run_dir, f)
            blobs[p] = Path(p).read_bytes()
    cmd_run(cfg, force=True)
    for path, blob in blobs.items():
        assert Path(path).read_bytes() == blob, f"{path} changed between identical runs"
    ok(f"cmd_run determinism: {len(blobs)} output files byte-identical across reruns")


def test_end_to_end_noninferiority(tmp_path):
    doc = default_config()
    doc["out"] = str(tmp_path / "e2e")
    doc["strategies"] = ["TAW", "CD-TAW"]
    doc["frequencies"] = ["dynamic_iterative"]
    assert doc["seeds"] == list(range(10))
    cfg = parse_config(doc)
    cmd_pretrain(cfg)
    cmd_make_donor(cfg)
    _, table_json = cmd_run(cfg)
    rows = {
        (r["strategy"], r["frequency"]): r["mean_error"]
        for r in json.loads(Path(table_json).read_text())["rows"]
    }
    dft = rows[("DFT", "-")]
    taw = rows[("TAW", "dynamic_iterative")]
    cdtaw = rows[("CD-TAW", "dynamic_iterative")]
    order = " <= ".join(
        f"{k}={v:.4f}" for k, v in sorted(
            {"CD-TAW": cdtaw, "TAW": taw, "DFT": dft}.items(), key=lambda kv: kv[1]
        )
    )
    print(f"\nobserved ordering over 10 seeds: {order}")
    expected_order = cdtaw < taw <= dft
    print(f"expected ordering (CD-TAW < TAW <= DFT) observed: {expected_order}")
    # the required bound is non-inferiority; the ordering above is reported only
    assert cdtaw <= dft + 0.005
    ok(f"end-to-end non-inferiority: CD-TAW {cdtaw:.4f} <= DFT {dft:.4f} + 0.005")


def test_checkpoint_and_mask_roundtrip_100(tmp_path):
    rng = np.random.default_rng(99)
    for i in range(100):
        tensors = []
        for k in range(int(rng.integers(1, 4))):
            shape = tuple(int(d) for d in rng.integers(1, 6, size=int(rng.integers(1, 3))))
            vals = rng.normal(size=shape).astype(np.float32)
            flat = vals.ravel()
            if flat.size:
                flat[0] = np.float32(1e-45)  # subnormal survives bit-exactly
                if flat.size > 1:
                    flat[1] = np.float32(-1e-40)
            tensors.append(Tensor(f"t{k}", vals, bool(rng.integers(2))))
        role = ("pretrained", "finetuned_target", "finetuned_donor", "adapted")[i % 4]
        ps = ParameterSet(tensors, role, {"i": str(i)})
        path = str(tmp_path / f"ps{i}.pada")
        save_checkpoint(ps, path)
        loaded = load_checkpoint(path)
        assert loaded == ps
        for a, b in zip(ps.tensors, loaded.tensors):
            assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32))

        if ps.d_prunable >= 1:
            mask = compute_ump_mask(ps, float(rng.uniform(0, 100)))
            mpath = str(tmp_path / f"m{i}.padm")
            save_mask(mask, mpath)
            assert load_mask(mpath) == mask
    ok("checkpoint/mask round-trip: 100 random sets bit-exact incl. subnormals")
