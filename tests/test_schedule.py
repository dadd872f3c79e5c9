import numpy as np
import pytest

from pada.schedule import (
    PruneSchedule,
    ScheduleError,
    read_log_jsonl,
    run_dft,
    run_pada,
    validate,
    write_log_jsonl,
)
from pada.pruning import compute_ump_mask
from pada.strategies import initial_model
from pada.trainer import (
    LabeledBatch,
    ModelArch,
    TrainConfig,
    dataset_loss,
    finetune_supervised,
    init_model,
)

ARCH = ModelArch(input_dim=5, hidden=(8,), num_classes=3, activation="tanh")


def toy_labeled(n=40, seed=0):
    rng = np.random.default_rng(seed)
    means = rng.normal(0, 2.0, size=(3, 5))
    y = rng.integers(0, 3, size=n)
    return LabeledBatch(means[y] + rng.normal(0, 0.5, size=(n, 5)), y)


def tcfg(seed=0, lr=0.05, batch=8, updates=0):
    return TrainConfig(lr=lr, batch=batch, updates=updates, seed=seed)


def test_validate_accepts_paper_presets():
    validate(PruneSchedule("dynamic_iterative", (40, 20, 10), 1000), 10000)
    validate(PruneSchedule("iterative", (30, 30, 30), 1000), 10000)
    validate(PruneSchedule("once", (40,), 1000), 10000)
    validate(PruneSchedule("dynamic_iterative", (30, 25, 20, 10), 1000), 9000)  # BASE preset


def test_validate_rejections_have_distinct_messages():
    with pytest.raises(ScheduleError, match="strictly decreasing"):
        validate(PruneSchedule("dynamic_iterative", (30, 30, 10), 10), 100)
    with pytest.raises(ScheduleError, match="equal"):
        validate(PruneSchedule("iterative", (30, 25, 20), 10), 100)
    with pytest.raises(ScheduleError, match="exactly one"):
        validate(PruneSchedule("once", (40, 20), 10), 100)
    with pytest.raises(ScheduleError, match="at least one"):
        validate(PruneSchedule("iterative", (), 10), 100)
    with pytest.raises(ScheduleError, match="frequency"):
        validate(PruneSchedule("sometimes", (40,), 10), 100)
    with pytest.raises(ScheduleError, match=r"outside \[0, 100\]"):
        validate(PruneSchedule("once", (140,), 10), 100)
    with pytest.raises(ScheduleError, match="total_updates"):
        validate(PruneSchedule("once", (40,), 10), 0)
    with pytest.raises(ScheduleError, match="interval must be positive"):
        validate(PruneSchedule("iterative", (30, 30), 0), 100)
    with pytest.raises(ScheduleError, match="exceed"):
        validate(PruneSchedule("iterative", (30, 30), 200), 100)


def test_event_timing_dynamic():
    pre = init_model(ARCH, 0)
    data = toy_labeled(seed=1)
    sched = PruneSchedule("dynamic_iterative", (40, 20, 10), 10)
    _, log = run_pada(pre, "TAG", sched, data, tcfg(seed=2, updates=50))
    assert [e.update for e in log.events] == [0, 10, 20]
    assert [e.rate for e in log.events] == [40.0, 20.0, 10.0]
    assert log.final["total_updates"] == 50


def test_run_pada_trains_cfg_updates():
    # N is the TrainConfig's; the schedule only plans where to prune
    pre = init_model(ARCH, 49)
    data = toy_labeled(seed=50)
    sched = PruneSchedule("dynamic_iterative", (40, 20, 10), 10)
    for n_total, expected in ((15, [0, 10]), (20, [0, 10, 20]), (45, [0, 10, 20])):
        _, log = run_pada(pre, "TAG", sched, data, tcfg(seed=51, updates=n_total))
        assert log.final["total_updates"] == n_total
        assert [e.update for e in log.events] == expected
    # without pruning, a run takes exactly the SGD steps DFT takes on the same config
    unpruned = PruneSchedule("once", (0,), 1)
    for n_total in (7, 8):
        cfg = tcfg(seed=52, updates=n_total)
        adapted, _ = run_pada(pre, "TAG", unpruned, data, cfg)
        assert adapted.tensors == run_dft(pre, data, cfg)[0].tensors
    with pytest.raises(ScheduleError, match="total_updates must be positive"):
        run_pada(pre, "TAG", sched, data, tcfg(seed=51, updates=0))


def test_event_timing_iterative_guard():
    # third rate unapplied: next candidate point 2000 exceeds N=1500
    pre = init_model(ARCH, 3)
    data = toy_labeled(seed=4)
    sched = PruneSchedule("iterative", (30, 30, 30), 1000)
    _, log = run_pada(pre, "TAG", sched, data, tcfg(seed=5, updates=1500))
    assert [e.update for e in log.events] == [0, 1000]


def test_event_exactly_at_n_is_executed():
    pre = init_model(ARCH, 6)
    data = toy_labeled(seed=7)
    sched = PruneSchedule("iterative", (30, 30, 30), 10)
    _, log = run_pada(pre, "TAG", sched, data, tcfg(seed=8, updates=20))
    assert [e.update for e in log.events] == [0, 10, 20]


def test_once_single_event():
    pre = init_model(ARCH, 9)
    data = toy_labeled(seed=10)
    sched = PruneSchedule("once", (40,), 10)
    _, log = run_pada(pre, "TAG", sched, data, tcfg(seed=11, updates=30))
    assert [e.update for e in log.events] == [0]


def test_event_count_bound_property():
    pre = init_model(ARCH, 12)
    data = toy_labeled(seed=13)
    rng = np.random.default_rng(14)
    for _ in range(25):
        n_total = int(rng.integers(1, 60))
        interval = int(rng.integers(1, n_total + 1))
        k = int(rng.integers(1, 6))
        rates = tuple(np.linspace(50, 5, k))  # strictly decreasing
        freq = "dynamic_iterative" if k > 1 else "once"
        sched = PruneSchedule(freq, rates, interval)
        _, log = run_pada(pre, "TAG", sched, data, tcfg(seed=15, updates=n_total))
        expected = min(k, n_total // interval + 1) if freq != "once" else 1
        assert len(log.events) == expected
        assert [e.update for e in log.events] == [i * interval for i in range(len(log.events))] or freq == "once"


def test_rate_zero_collapses_to_dft():
    pre = init_model(ARCH, 16)
    data = toy_labeled(seed=17)
    cfg = tcfg(seed=18, updates=40)
    sched = PruneSchedule("iterative", (0, 0, 0), 10)
    adapted, log = run_pada(pre, "TAG", sched, data, cfg)
    baseline, _ = run_dft(pre, data, cfg)
    assert adapted.tensors == baseline.tensors  # bit-identical weights
    assert all(e.rate == 0.0 for e in log.events)


def test_once_rate_zero_equals_dft():
    pre = init_model(ARCH, 19)
    data = toy_labeled(seed=20)
    cfg = tcfg(seed=21, updates=35)
    sched = PruneSchedule("once", (0,), 5)
    adapted, _ = run_pada(pre, "TAG", sched, data, cfg)
    baseline, _ = run_dft(pre, data, cfg)
    assert adapted.tensors == baseline.tensors


def test_no_persistent_mask_regrowth():
    pre = init_model(ARCH, 22)
    data = toy_labeled(seed=23)
    sched = PruneSchedule("once", (40,), 10)
    adapted, log = run_pada(pre, "TAG", sched, data, tcfg(seed=24, updates=200))
    assert log.final["final_sparsity"] < log.events[0].sparsity_after


def test_reproducible_bit_identical():
    pre = init_model(ARCH, 25)
    data = toy_labeled(seed=26)
    sched = PruneSchedule("dynamic_iterative", (40, 20, 10), 20)
    a, _ = run_pada(pre, "TAG", sched, data, tcfg(seed=27, updates=60))
    b, _ = run_pada(pre, "TAG", sched, data, tcfg(seed=27, updates=60))
    assert a == b
    assert a.role == "adapted"


def test_invalid_schedule_rejected_by_run():
    pre = init_model(ARCH, 31)
    data = toy_labeled(seed=32)
    sched = PruneSchedule("dynamic_iterative", (10, 20), 5)
    with pytest.raises(ScheduleError):
        run_pada(pre, "TAG", sched, data, tcfg(seed=33, updates=10))


def test_divergence_carries_global_step():
    # one poisoned row makes the loss NaN on the first batch that samples it;
    # the reported step must be the GLOBAL update index across prune chunks
    from pada.trainer import TrainingDivergedError

    pre = init_model(ARCH, 34)
    data = toy_labeled(n=40, seed=35)
    x = data.x.copy()
    x[17] = np.nan
    data = LabeledBatch(x, data.y)
    cfg = tcfg(seed=0, batch=8, updates=400)
    # independent replay of the documented sampling contract:
    # one rng.integers(0, n, batch) call per update
    rng = np.random.default_rng(cfg.seed)
    expected = next(
        step for step in range(400) if 17 in rng.integers(0, data.n, size=cfg.batch)
    )
    sched = PruneSchedule("iterative", (10, 10, 10), 2)
    assert expected >= sched.interval  # fails in a later chunk, not the first
    with pytest.raises(TrainingDivergedError) as info:
        run_pada(pre, "TAG", sched, data, cfg)
    assert info.value.step == expected


def test_run_dft_no_events_and_deterministic():
    pre = init_model(ARCH, 37)
    data = toy_labeled(seed=38)
    eval_data = toy_labeled(seed=39)
    cfg = tcfg(seed=40, updates=50)
    model1, log1 = run_dft(pre, data, cfg, eval_data=eval_data)
    model2, log2 = run_dft(pre, data, cfg, eval_data=eval_data)
    assert log1.events == []
    assert model1 == model2
    assert log1.final["error_rate"] == log2.final["error_rate"]
    assert log1.final["strategy"] == "DFT"
    assert model1.role == "finetuned_target"


def test_run_dft_model_is_the_target_finetune():
    # the identity that lets `pada run` rank TAW masks from the DFT cell's model
    pre = init_model(ARCH, 37)
    data = toy_labeled(seed=38)
    cfg = tcfg(seed=40, updates=50)
    model, _ = run_dft(pre, data, cfg)
    assert model.tensors == finetune_supervised(pre, data, cfg).tensors


def test_log_jsonl_roundtrip(tmp_path):
    pre = init_model(ARCH, 41)
    data = toy_labeled(seed=42)
    eval_data = toy_labeled(seed=43)
    sched = PruneSchedule("dynamic_iterative", (40, 20, 10), 10)
    _, log = run_pada(
        pre, "TAG", sched, data, tcfg(seed=44, updates=30), eval_data=eval_data
    )
    path = str(tmp_path / "log.jsonl")
    write_log_jsonl(log, path)
    back = read_log_jsonl(path)
    assert back.events == log.events
    assert back.final == log.final
    # events sorted, first at update 0
    updates = [e.update for e in back.events]
    assert updates == sorted(updates)
    assert updates[0] == 0
    assert "error_rate" in back.final


def test_taw_strategy_inside_run():
    pre = init_model(ARCH, 45)
    data = toy_labeled(seed=46)
    cfg = tcfg(seed=47, updates=30)
    sched = PruneSchedule("once", (40,), 10)
    a, log = run_pada(pre, "TAW", sched, data, cfg)
    b, _ = run_pada(pre, "TAW", sched, data, cfg)
    assert a == b
    # the initial mask ranks the seed's DFT model, not the pre-trained one
    finetuned, _ = run_dft(pre, data, cfg)
    start, mask = initial_model(pre, "TAW", 40.0, finetuned=finetuned)
    assert mask == compute_ump_mask(finetuned, 40.0)
    assert mask != compute_ump_mask(pre, 40.0)
    # and the run's update-0 event is that model's
    assert log.events[0].train_loss == dataset_loss(start, data)


def test_a_wave_with_a_failed_slot_releases_its_stack_before_scoring(monkeypatch, workers):
    # of seeds 0-3, only seed 3 draws the NaN row in 10 updates of 2, so its
    # DFT and TAG slots diverge and its TAW slot takes the DFT's divergence;
    # nothing in a wave is caught, so no traceback keeps a stack alive while
    # the survivors are scored (the passing case is
    # test_waves_score_only_after_releasing_their_stack); one block, so that
    # every wave runs in this process
    import weakref

    import pada.schedule
    from pada.schedule import run_cells
    from pada.trainer import ModelStack, TrainingDivergedError

    live = weakref.WeakSet()

    class Tracked(ModelStack):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)

    live_when_scoring = []
    real = pada.schedule._final_record

    def scoring(*args):
        live_when_scoring.append(len(live))
        return real(*args)

    monkeypatch.setattr(pada.schedule, "ModelStack", Tracked)
    monkeypatch.setattr(pada.schedule, "_final_record", scoring)
    workers(1)
    pre = init_model(ARCH, 0)
    data = toy_labeled()
    x = data.x.copy()
    x[17] = np.nan
    once = PruneSchedule("once", (40.0,), 5)
    slots = [(seed, s, once if s != "DFT" else None) for seed in range(4)
             for s in ("DFT", "TAG", "TAW")]
    outcomes = run_cells(pre, slots, LabeledBatch(x, data.y), tcfg(batch=2, updates=10))
    failed = [slot for slot, o in zip(slots, outcomes) if isinstance(o, TrainingDivergedError)]
    assert [(seed, s) for seed, s, _ in failed] == [(3, "DFT"), (3, "TAG"), (3, "TAW")]
    assert live_when_scoring == [0] * 9


@pytest.mark.parametrize("bad", ["narrow", "unlabeled"])
def test_run_cells_refuses_a_bad_eval_set_before_any_training(train_calls, bad):
    from pada.schedule import run_cells
    from pada.trainer import UnlabeledBatch

    narrow = toy_labeled(n=20, seed=1)
    narrow = LabeledBatch(narrow.x[:, :4], narrow.y)  # the model reads 5 features
    eval_data = narrow if bad == "narrow" else UnlabeledBatch(toy_labeled(n=20, seed=1).x)
    once = PruneSchedule("once", (40.0,), 5)
    slots = [(seed, s, once) for seed in (0, 1) for s in ("TAG", "TAW")] + [(0, "DFT", None)]
    pre = init_model(ARCH, 0)
    want = "input has 4 features, model expects 5" if bad == "narrow" else "requires a LabeledBatch"
    with pytest.raises(ValueError, match=want) as info:
        run_cells(pre, slots, toy_labeled(), tcfg(updates=50), eval_data=eval_data)
    assert type(info.value) is ValueError
    assert train_calls == []


def test_run_cells_validates_each_schedule_once_before_any_training(monkeypatch, train_calls):
    import pada.schedule
    from pada.schedule import run_cells

    checked, real = [], pada.schedule.validate

    def counting(sched, updates):
        checked.append(sched)
        real(sched, updates)

    monkeypatch.setattr(pada.schedule, "validate", counting)
    pre = init_model(ARCH, 0)
    once, twice = PruneSchedule("once", (40.0,), 5), PruneSchedule("iterative", (30.0, 30.0), 5)
    slots = [(seed, s, sched) for seed in (0, 1) for s in ("TAG", "TAW") for sched in (once, twice)]
    run_cells(pre, slots + [(0, "DFT", None)], toy_labeled(), tcfg(updates=10))
    assert checked == [once, twice] and train_calls
    train_calls.clear()
    bad = PruneSchedule("once", (40.0, 20.0), 5)  # the last slot, after slots that would train
    with pytest.raises(ScheduleError, match="'once' takes exactly one pruning rate"):
        run_cells(pre, [(0, "DFT", None), (0, "TAG", once), (1, "TAG", bad)], toy_labeled(),
                  tcfg(updates=10))
    assert train_calls == []


def test_blocks_take_whole_units_balanced_by_slot_count():
    # a seed's units: its DFT and TAW slots, and its TAG and CD-TAW slots
    from pada.schedule import _blocks

    scheds = [PruneSchedule("once", (40.0,), 5), PruneSchedule("iterative", (30.0, 30.0), 5),
              PruneSchedule("dynamic_iterative", (40.0, 20.0), 5)]
    cells = [("DFT", None)] + [(s, sched) for s in ("TAG", "TAW", "CD-TAW") for sched in scheds]

    def grid(seeds, dft=True):
        return [(seed, s, sched) for seed in seeds for s, sched in cells[0 if dft else 1:]]

    chain, free = [0, 4, 5, 6], [1, 2, 3, 7, 8, 9]
    assert _blocks(grid([0]), 1) == [list(range(10))]
    assert _blocks(grid([0]), 2) == _blocks(grid([0]), 8) == [chain, free]
    assert _blocks(grid(range(10)), 2) == [list(range(50)), list(range(50, 100))]
    assert _blocks(grid([0, 1, 2]), 2) == [sorted([*range(10), *(10 + i for i in chain)]),
                                            sorted([*(10 + i for i in free), *range(20, 30)])]
    # without DFT slots, a seed's TAG slots come first; its chain is its TAW slots
    assert _blocks(grid([0], dft=False), 2) == [[0, 1, 2, 6, 7, 8], [3, 4, 5]]
    assert _blocks([], 2) == [[]]


def test_at_most_two_blocks_train_at_once(monkeypatch):
    # W > 2 was never measured, and each added block cuts every stack shorter
    import os

    from pada.schedule import _workers

    for cpus, want in ((1, 1), (2, 2), (20, 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _, n=cpus: set(range(n)), raising=False)
        assert _workers() == want
