import numpy as np
import pytest

from pada.params import ParameterSet, StructureMismatchError, Tensor
from pada.pruning import apply_zeroing, compute_ump_mask
from pada.trainer import (
    LabeledBatch,
    ModelArch,
    ModelStack,
    TrainConfig,
    TrainingDivergedError,
    UnlabeledBatch,
    dataset_loss,
    evaluate,
    finetune_supervised,
    init_model,
    loss_and_grads,
    pretrain_denoising,
    sgd_step,
    sgd_train,
)

ARCH = ModelArch(input_dim=6, hidden=(10, 8), num_classes=4, activation="tanh")


def toy_labeled(n=64, seed=0, arch=ARCH):
    rng = np.random.default_rng(seed)
    means = rng.normal(0, 2.0, size=(arch.num_classes, arch.input_dim))
    y = rng.integers(0, arch.num_classes, size=n)
    x = means[y] + rng.normal(0, 0.8, size=(n, arch.input_dim))
    return LabeledBatch(x, y)


def weights64(ps):
    """Exact float64 copies of every tensor, keyed by name."""
    return {t.name: t.data.astype(np.float64) for t in ps.tensors}


def recon_output(ps, x):
    """The reconstruction head's output on ``x``, computed by hand (tanh trunk)."""
    w = weights64(ps)
    a = x
    for i in range(len(ARCH.hidden)):
        a = np.tanh(a @ w[f"layers.{i}.weight"].T + w[f"layers.{i}.bias"])
    return a @ w["recon.weight"].T + w["recon.bias"]


def outputs(ps, x):
    """The classification head's outputs on ``x``: the forward pass of an S = 1 stack."""
    return ModelStack.of([ps], "cross_entropy").outputs(x)[0]


def zero_all(ps):
    out = ps.copy()
    for t in out.tensors:
        t.data = np.zeros_like(t.data)
    return out


def test_forward_zero_weights_tanh_zero_output():
    ps = zero_all(init_model(ARCH, 0))
    x = np.random.default_rng(1).normal(size=(5, 6))
    assert np.all(outputs(ps, x) == 0.0)
    # the reconstruction head's squared error against an all-zero target
    assert ModelStack.of([ps], "mse_reconstruction").grads(x, np.zeros_like(x))[0] == 0.0


def test_forward_hand_computed_matrix_vector():
    # identity trunk under relu with nonnegative input passes x through, so
    # the classification output is exactly W x + b, computed by hand below
    arch = ModelArch(input_dim=3, hidden=(3,), num_classes=3, activation="relu")
    ps = init_model(arch, 0)
    ps["layers.0.weight"].data = np.eye(3, dtype=np.float32)
    ps["layers.0.bias"].data = np.zeros(3, dtype=np.float32)
    ps["cls.weight"].data = np.array(
        [[1.0, 2.0, 3.0], [0.0, -1.0, 1.0], [2.0, 0.5, -2.0]], dtype=np.float32
    )
    ps["cls.bias"].data = np.array([0.5, 0.0, -1.0], dtype=np.float32)
    x = np.array([[1.0, 2.0, 0.5]])
    out = outputs(ps, x)
    # rows of W dot x: [1+4+1.5, 0-2+0.5, 2+1-1] then + bias
    np.testing.assert_allclose(out, [[6.5 + 0.5, -1.5 + 0.0, 2.0 - 1.0]], atol=1e-6)


def test_forward_batch_row_independence():
    ps = init_model(ARCH, 2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 6))
    full = outputs(ps, x)
    single = outputs(ps, x[4:5])
    # rows are independent; BLAS kernels for different batch shapes may differ
    # in the last ulp, so compare at machine precision rather than bit-exactly
    np.testing.assert_allclose(full[4:5], single, rtol=0, atol=1e-12)


def test_forward_dim_mismatch():
    # every forward-only entry point refuses rows of the wrong width
    ps = init_model(ARCH, 0)
    rows = LabeledBatch(np.zeros((2, 7)), [0, 0])
    for stage in (lambda: evaluate(ps, rows), lambda: dataset_loss(ps, rows),
                  lambda: dataset_loss(ps, UnlabeledBatch(rows.x))):
        with pytest.raises(ValueError, match="input has 7 features, model expects 6"):
            stage()


def test_cross_entropy_perfect_prediction_near_zero():
    ps = zero_all(init_model(ARCH, 0))
    ps["cls.bias"].data = np.array([50.0, 0.0, 0.0, 0.0], dtype=np.float32)
    x = np.zeros((8, 6))
    y = np.zeros(8, dtype=np.int64)
    loss, _ = loss_and_grads(ps, LabeledBatch(x, y))
    assert 0.0 <= loss < 1e-12


def test_mse_doubling_error_quadruples_loss():
    ps = init_model(ARCH, 4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 6))
    out = recon_output(ps, x)
    e = rng.normal(size=out.shape)
    stack = ModelStack.of([ps], "mse_reconstruction")
    loss1 = stack.grads(x, out - e)[0]
    loss2 = stack.grads(x, out - 2 * e)[0]
    assert loss2 == pytest.approx(4.0 * loss1, rel=1e-9)


def finite_difference_max_rel_err(ps, x, target, kind, n_coords=120, eps=1e-4, seed=0):
    """Central differences vs the analytic gradients of one stacked model.

    The stack is built from float64 weights, so its masters stay float64 and
    a perturbation is exact; the analytic gradients are the float32 ones a
    training step applies.
    """
    stack = ModelStack([weights64(ps)], kind, ps.meta.get("activation", "tanh"))
    stack.grads(x, target)
    grads = stack.flat_grad.copy()  # the next grads call overwrites flat_grad
    rng = np.random.default_rng(seed)
    # sample only tensors on the active path; inactive-head grads are zero by
    # construction and checked separately
    names = list(stack.layout)
    checked = 0
    max_rel = 0.0
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


def test_gradcheck_cross_entropy():
    ps = init_model(ARCH, 7)
    data = toy_labeled(32, seed=8)
    err = finite_difference_max_rel_err(ps, data.x, data.y, "cross_entropy")
    assert err <= 1e-4


def test_gradcheck_mse():
    ps = init_model(ARCH, 9)
    rng = np.random.default_rng(10)
    clean = rng.normal(size=(32, 6))
    noisy = clean + rng.normal(0, 0.3, size=clean.shape)
    err = finite_difference_max_rel_err(ps, noisy, clean, "mse_reconstruction")
    assert err <= 1e-4


def test_gradcheck_at_zeroed_coordinates():
    ps = apply_zeroing(init_model(ARCH, 11), compute_ump_mask(init_model(ARCH, 11), 40.0))
    data = toy_labeled(32, seed=12)
    err = finite_difference_max_rel_err(ps, data.x, data.y, "cross_entropy", seed=13)
    assert err <= 1e-4


def test_gradcheck_relu():
    arch = ModelArch(input_dim=6, hidden=(10, 8), num_classes=4, activation="relu")
    ps = init_model(arch, 14)
    data = toy_labeled(32, seed=15, arch=arch)
    err = finite_difference_max_rel_err(ps, data.x, data.y, "cross_entropy", seed=16)
    assert err <= 1e-4


def test_inactive_head_gets_zero_grads():
    ps = init_model(ARCH, 17)
    data = toy_labeled(16, seed=18)
    _, grads = loss_and_grads(ps, data)
    assert list(grads) == ps.names()
    assert all(g.dtype == np.float32 for g in grads.values())
    assert np.all(grads["recon.weight"] == 0.0)
    assert np.all(grads["recon.bias"] == 0.0)


def test_sgd_step_lr_zero_identity():
    ps = init_model(ARCH, 19)
    data = toy_labeled(16, seed=20)
    _, grads = loss_and_grads(ps, data)
    assert sgd_step(ps, grads, 0.0) == ps


def test_sgd_step_regrows_zero_weight():
    ps = ParameterSet([Tensor("w", [0.0])])
    grads = {"w": np.array([-1.0], dtype=np.float32)}
    out = sgd_step(ps, grads, 0.1)
    assert out["w"].data[0] == pytest.approx(0.1)


def test_sgd_step_hand_computed():
    ps = ParameterSet([Tensor("w", [0.5, -0.25])], "adapted", {"seed": "3"})
    grads = {"w": np.array([0.2, 0.4], dtype=np.float32)}
    out = sgd_step(ps, grads, 0.5)
    np.testing.assert_allclose(out["w"].data, [0.4, -0.45], rtol=1e-7)
    assert out["w"].data.dtype == np.float32
    assert (out.role, out.meta) == ("adapted", {"seed": "3"})
    # the inputs are left unmodified
    assert ps["w"].data.tolist() == [0.5, -0.25]
    assert grads["w"].tolist() == pytest.approx([0.2, 0.4])


def test_sgd_step_structure_mismatch():
    ps = ParameterSet([Tensor("w", np.zeros(2))])
    grads = {"v": np.zeros(2, dtype=np.float32)}
    with pytest.raises(StructureMismatchError):
        sgd_step(ps, grads, 0.1)


def test_pretrain_loss_trend():
    rng = np.random.default_rng(21)
    data = UnlabeledBatch(rng.normal(size=(256, 6)))
    cfg = TrainConfig(lr=0.05, batch=32, updates=400, seed=22, denoise_std=0.2)
    ps = init_model(ARCH, 22)
    _, losses = sgd_train(ps, data, cfg, cfg.updates, np.random.default_rng(cfg.seed))
    assert np.mean(losses[:10]) > np.mean(losses[-10:])


def test_pretrain_zero_updates_returns_initialization():
    rng = np.random.default_rng(23)
    data = UnlabeledBatch(rng.normal(size=(64, 6)))
    cfg = TrainConfig(lr=0.05, batch=16, updates=0, seed=24)
    ps = pretrain_denoising(ARCH, data, cfg)
    expected = init_model(ARCH, np.random.default_rng(24))
    assert ps.tensors == expected.tensors
    assert ps.role == "pretrained"


def test_pretrain_deterministic():
    rng = np.random.default_rng(25)
    data = UnlabeledBatch(rng.normal(size=(128, 6)))
    cfg = TrainConfig(lr=0.05, batch=16, updates=150, seed=26)
    assert pretrain_denoising(ARCH, data, cfg) == pretrain_denoising(ARCH, data, cfg)


def test_supervised_stages_refuse_unlabeled_data():
    # the data type picks the loss, so unlabeled rows would silently train the
    # reconstruction head; every supervised stage refuses them instead
    from pada.schedule import PruneSchedule, run_dft, run_pada

    pre = init_model(ARCH, 0)
    data = UnlabeledBatch(np.zeros((4, 6)))
    cfg = TrainConfig(lr=0.05, batch=2, updates=1, seed=0)
    for stage in (
        lambda: finetune_supervised(pre, data, cfg),
        lambda: run_dft(pre, data, cfg),
        lambda: run_pada(pre, "TAG", PruneSchedule("once", (40,), 1), data, cfg),
    ):
        with pytest.raises(ValueError, match="LabeledBatch"):
            stage()


def test_pretraining_refuses_labeled_data():
    # a LabeledBatch would train the classification head instead
    x = np.zeros((4, 6))
    cfg = TrainConfig(lr=0.05, batch=2, updates=1, seed=0)
    for data in (LabeledBatch(x, np.zeros(4, dtype=np.int64)), x):
        with pytest.raises(ValueError, match="UnlabeledBatch"):
            pretrain_denoising(ARCH, data, cfg)


def test_dataset_loss_follows_the_data_type():
    # the loss a training step on the whole batch computes: cross-entropy on
    # labeled rows, the clean reconstruction error on unlabeled ones
    ps = init_model(ARCH, 30)
    data = toy_labeled(32, seed=31)
    ce = ModelStack.of([ps], "cross_entropy").grads(data.x, data.y)[0]
    assert dataset_loss(ps, data) == ce == loss_and_grads(ps, data)[0]
    rows = UnlabeledBatch(data.x)
    mse = ModelStack.of([ps], "mse_reconstruction").grads(rows.x, rows.x)[0]
    assert dataset_loss(ps, rows) == mse == loss_and_grads(ps, rows)[0]
    with pytest.raises(ValueError, match="LabeledBatch or an UnlabeledBatch"):
        dataset_loss(ps, data.x)


def test_finetune_head_changes_and_improves():
    data = toy_labeled(200, seed=27)
    ps = init_model(ARCH, 28)
    cfg = TrainConfig(lr=0.05, batch=16, updates=400, seed=29)
    tuned = finetune_supervised(ps, data, cfg)
    assert not np.array_equal(tuned["cls.weight"].data, ps["cls.weight"].data)
    assert evaluate(tuned, data) < evaluate(ps, data)
    assert tuned.role == "finetuned_target"
    # input untouched, determinism holds
    assert ps == init_model(ARCH, 28)
    assert tuned == finetune_supervised(ps, data, cfg)


def test_finetune_zero_updates_preserves_body():
    data = toy_labeled(32, seed=30)
    ps = init_model(ARCH, 31)
    cfg = TrainConfig(lr=0.05, batch=8, updates=0, seed=32)
    tuned = finetune_supervised(ps, data, cfg)
    assert tuned.tensors == ps.tensors


def test_finetune_requires_head():
    trunk = init_model(ARCH, 0).tensors[:4]  # layers.{0,1}.{weight,bias}
    data = toy_labeled(8, seed=33)
    cfg = TrainConfig(lr=0.05, batch=4, updates=1, seed=0)
    with pytest.raises(ValueError, match="has no cls.weight, which its classification head reads"):
        finetune_supervised(ParameterSet(trunk), data, cfg)


@pytest.mark.parametrize("name", ["layers.0.weight", "layers.1.bias", "cls.bias"])
def test_every_tensor_the_forward_pass_reads_is_checked(name):
    # a step binds every weight and bias up to the loss's head, so each is checked first
    ps = init_model(ARCH, 0)
    renamed = ParameterSet([Tensor(t.name.replace(name, name[:-1] + "z"), t.data)
                            for t in ps.tensors])
    data = toy_labeled(8, seed=33)
    cfg = TrainConfig(lr=0.05, batch=4, updates=1, seed=0)
    for stage in (lambda: finetune_supervised(renamed, data, cfg),
                  lambda: evaluate(renamed, data), lambda: dataset_loss(renamed, data)):
        with pytest.raises(ValueError, match=f"has no {name}, which its classification head"):
            stage()


def test_evaluate_perfect_classifier():
    data = toy_labeled(300, seed=34)
    ps = init_model(ARCH, 35)
    cfg = TrainConfig(lr=0.1, batch=32, updates=3000, seed=36)
    tuned = finetune_supervised(ps, data, cfg)
    assert evaluate(tuned, data) == 0.0


def test_evaluate_random_labels_binomial():
    rng = np.random.default_rng(37)
    n, c = 4000, ARCH.num_classes
    x = rng.normal(size=(n, 6))
    y = rng.integers(0, c, size=n)  # labels independent of features
    ps = init_model(ARCH, 38)
    err = evaluate(ps, LabeledBatch(x, y))
    p = 1.0 - 1.0 / c
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(err - p) <= 3 * sigma


def test_evaluate_deterministic_and_empty():
    data = toy_labeled(16, seed=39)
    ps = init_model(ARCH, 40)
    assert evaluate(ps, data) == evaluate(ps, data)
    with pytest.raises(ValueError, match="empty"):
        evaluate(ps, LabeledBatch(np.zeros((0, 6)), np.zeros(0, dtype=np.int64)))


def test_divergence_error_carries_step():
    rng = np.random.default_rng(41)
    data = UnlabeledBatch(rng.normal(size=(64, 6)) * 10.0)
    cfg = TrainConfig(lr=1e4, batch=16, updates=500, seed=42)
    ps = init_model(ARCH, 43)
    with pytest.raises(TrainingDivergedError) as info:
        sgd_train(ps, data, cfg, cfg.updates, np.random.default_rng(cfg.seed))
    assert 0 < info.value.step < 500
    assert "update" in str(info.value)


@pytest.mark.parametrize("run", [None, "taw_once_seed1"])
def test_divergence_error_survives_pickling(run):
    # worker processes that train seed blocks would hand a divergence back pickled
    import pickle

    exc = TrainingDivergedError(6, run)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TrainingDivergedError
    assert (back.step, back.run, str(back)) == (6, run, str(exc))
    named = "" if run is None else f"run {run}: "
    assert str(back) == f"{named}training diverged (non-finite loss) at update 6"


def test_nonfinite_loss_is_returned_as_it_is():
    # as ModelStack.grads returns it; training turns it into a divergence
    ps = init_model(ModelArch(2, (3,), 2, activation="relu"), 44)
    loss, grads = loss_and_grads(ps, UnlabeledBatch(np.full((2, 2), 1e300)))
    assert not np.isfinite(loss)
    assert list(grads) == ps.names()


def test_losses_and_grads_finite_on_generated_data():
    from pada.data import DomainShiftSpec, gen_domain_shift

    spec = DomainShiftSpec(
        num_classes=4, input_dim=6, source_unlabeled=200, source_labeled=200, target_eval=100
    )
    task = gen_domain_shift(48, spec)
    ps = init_model(ARCH, 49)
    loss, grads = loss_and_grads(ps, task.target_labeled)
    assert np.isfinite(loss)
    loss2, grads2 = loss_and_grads(ps, task.source_unlabeled)
    assert np.isfinite(loss2)
    for g in (grads, grads2):
        for arr in g.values():
            assert np.all(np.isfinite(arr))


def test_chunked_training_matches_single_call():
    data = toy_labeled(64, seed=45)
    cfg = TrainConfig(lr=0.05, batch=8, updates=120, seed=46)
    ps = init_model(ARCH, 47)
    whole, _ = sgd_train(ps, data, cfg, 120, np.random.default_rng(46))
    rng = np.random.default_rng(46)
    chunked = ps
    for _ in range(3):
        chunked, _ = sgd_train(chunked, data, cfg, 40, rng)
    assert whole == chunked


@pytest.mark.parametrize("n", [1, 24, 600, 2**31 + 1, 2**40 + 3])
@pytest.mark.parametrize("batch", [1, 15, 16])
def test_one_draw_of_a_segment_equals_one_draw_per_step(n, batch):
    # the stacked kernel draws a segment's row indices in one call; that must
    # be the stream of one call per step, including odd batches (half of a
    # 64-bit draw left over) and ranges where bounded draws get rejected
    steps = 50
    whole = np.random.default_rng(63).integers(0, n, size=(steps, batch))
    rng = np.random.default_rng(63)
    per_step = np.stack([rng.integers(0, n, size=batch) for _ in range(steps)])
    assert np.array_equal(whole, per_step)


@pytest.mark.parametrize("updates", [0, 5])
def test_sgd_train_result_shares_no_buffer_with_input(updates):
    data = toy_labeled(32, seed=50)
    cfg = TrainConfig(lr=0.05, batch=8, updates=updates, seed=51)
    ps = init_model(ARCH, 52)
    before = ps.copy()
    out, losses = sgd_train(ps, data, cfg, updates, np.random.default_rng(51))
    assert len(losses) == updates
    assert ps == before
    for t in ps.tensors:
        assert not np.shares_memory(out[t.name].data, t.data)
    # writing to the result leaves the input alone
    for t in out.tensors:
        t.data[...] = 1.0
    assert ps == before


def test_sgd_train_builds_objects_once_per_call(monkeypatch):
    import pada.params
    import pada.trainer

    counts = {"Tensor": 0, "ParameterSet": 0}

    def counting(cls, key):
        original = cls.__post_init__

        def post_init(self):
            counts[key] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)

    counting(Tensor, "Tensor")
    counting(ParameterSet, "ParameterSet")
    real_mismatch = pada.params.structural_mismatch
    calls = []
    for module in (pada.params, pada.trainer):
        monkeypatch.setattr(
            module,
            "structural_mismatch",
            lambda a, b: calls.append(1) or real_mismatch(a, b),
            raising=False,
        )
    data = toy_labeled(32, seed=53)
    ps = init_model(ARCH, 54)
    seen = []
    for updates in (1, 40):
        counts.update(Tensor=0, ParameterSet=0)
        cfg = TrainConfig(lr=0.05, batch=8, updates=updates, seed=55)
        sgd_train(ps, data, cfg, updates, np.random.default_rng(55))
        seen.append(dict(counts))
    # one result set of len(ps) tensors, however many updates ran
    assert seen[0] == seen[1] == {"Tensor": len(ps), "ParameterSet": 1}
    assert calls == []


@pytest.mark.parametrize("labeled", [True, False])
def test_stack_trains_each_model_as_if_alone(labeled):
    # one stack of two different models, one of them freshly zeroed, under
    # both losses: every slice ends bit-identical to training it alone
    arch = ModelArch(input_dim=6, hidden=(40, 24), num_classes=4, activation="tanh")
    rows = toy_labeled(64, seed=56, arch=arch)
    data = rows if labeled else UnlabeledBatch(rows.x)
    kind = "cross_entropy" if labeled else "mse_reconstruction"
    cfg = TrainConfig(lr=0.05, batch=8, updates=30, seed=57, denoise_std=0.2)
    other = init_model(arch, 59)
    models = [init_model(arch, 58), apply_zeroing(other, compute_ump_mask(other, 40.0))]
    stack = ModelStack.of(models, kind)
    losses = stack.train(data, cfg, cfg.updates, [np.random.default_rng(cfg.seed)] * 2)
    for j, ps in enumerate(models):
        alone, alone_losses = sgd_train(ps, data, cfg, cfg.updates, np.random.default_rng(cfg.seed))
        assert stack.model(j, ps, ps.role) == alone
        assert [float(step[j]) for step in losses] == alone_losses


@pytest.mark.bit_identity
def test_stack_of_several_seeds_trains_each_model_as_if_alone():
    # three generators over five slots, not grouped by generator and one
    # slot alone: each slot gets its own generator's minibatches and ends
    # bit-identical to training it alone on that generator's seed, and
    # each generator is consumed as by one model trained alone
    arch = ModelArch(input_dim=6, hidden=(40, 24), num_classes=4, activation="tanh")
    data = toy_labeled(64, seed=60, arch=arch)
    cfg = TrainConfig(lr=0.05, batch=8, updates=30, seed=0)
    other = init_model(arch, 62)
    models = [init_model(arch, 61), apply_zeroing(other, compute_ump_mask(other, 40.0))]
    seeds = [3, 4, 3, 5, 4]
    slots = [(models[j % 2], seed) for j, seed in enumerate(seeds)]
    gens = {seed: np.random.default_rng(seed) for seed in set(seeds)}
    stack = ModelStack.of([ps for ps, _ in slots], "cross_entropy")
    losses = stack.train(data, cfg, cfg.updates, [gens[seed] for _, seed in slots])
    for j, (ps, seed) in enumerate(slots):
        rng = np.random.default_rng(seed)
        alone, alone_losses = sgd_train(ps, data, cfg, cfg.updates, rng)
        assert stack.model(j, ps, ps.role) == alone
        assert [float(step[j]) for step in losses] == alone_losses
        assert gens[seed].bit_generator.state == rng.bit_generator.state


def test_stack_refuses_models_of_two_activations():
    # every slice of a stack trains with one activation, so a mixed stack is refused; a model
    # without the key reads as tanh
    relu = init_model(ModelArch(input_dim=6, hidden=(8,), num_classes=4, activation="relu"), 65)
    tanh = init_model(ModelArch(input_dim=6, hidden=(8,), num_classes=4, activation="tanh"), 66)
    with pytest.raises(ValueError, match="differ in activation: 'relu' vs 'tanh'"):
        ModelStack.of([relu, tanh], "cross_entropy")
    unnamed = tanh.copy()
    del unnamed.meta["activation"]
    with pytest.raises(ValueError, match="differ in activation: 'relu' vs 'tanh'"):
        ModelStack.of([relu, unnamed], "cross_entropy")
    assert ModelStack.of([unnamed, tanh], "cross_entropy").activation == "tanh"


def test_train_refuses_several_streams_on_unlabeled_data():
    # denoising draws each model's noise from its stream, and one stream
    # is all any stage needs; the generators are left untouched
    arch = ModelArch(input_dim=6, hidden=(8,), num_classes=4)
    data = UnlabeledBatch(toy_labeled(16, seed=63, arch=arch).x)
    cfg = TrainConfig(lr=0.05, batch=4, updates=3, seed=0)
    stack = ModelStack.of([init_model(arch, 64)] * 2, "mse_reconstruction")
    gens = [np.random.default_rng(3), np.random.default_rng(4)]
    with pytest.raises(ValueError, match="denoising draws from one random stream, got 2"):
        stack.train(data, cfg, cfg.updates, gens)
    assert [g.bit_generator.state for g in gens] == [
        np.random.default_rng(seed).bit_generator.state for seed in (3, 4)
    ]


# --- the unbound step, kept as the reference the bound kernel must match ---
#
# A plain copy of the stacked SGD step as it ran before ModelStack bound its
# operands once per batch size: every view, index array and buffer is built
# again at each step, each tensor lives in its own array, and labels are
# picked by a 3-array index.  The bound kernel runs the same ufunc calls in
# the same order, so it must match this bit for bit.


def ref_apply_act(a, activation):
    if activation == "tanh":
        np.tanh(a, out=a)
    else:
        np.maximum(a, 0.0, out=a)


def ref_times_act_grad(da, a, activation):
    if activation == "tanh":
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
    else:
        np.greater(a, 0.0, out=a)
    np.multiply(da, a, out=da)


def ref_forward(w, x, activation, head, depth):
    shapes = [w[f"layers.{i}.weight"].shape for i in range(depth)] + [w[f"{head}.weight"].shape]
    bufs = [np.empty((models, x.shape[-2], width)) for models, width, _ in shapes]
    acts = [x]
    for i, a in enumerate(bufs[:-1]):
        np.matmul(acts[-1], w[f"layers.{i}.weight"].transpose(0, 2, 1), out=a)
        a += w[f"layers.{i}.bias"][:, None, :]
        ref_apply_act(a, activation)
        acts.append(a)
    out = bufs[-1]
    np.matmul(acts[-1], w[f"{head}.weight"].transpose(0, 2, 1), out=out)
    out += w[f"{head}.bias"][:, None, :]
    return out, acts


def ref_loss_from_outputs(out, target, kind):
    models, rows = out.shape[:2]
    if kind == "cross_entropy":
        y = np.asarray(target, dtype=np.int64)
        picked = (np.arange(models)[:, None], np.arange(rows), y)
        zmax = out[:, :, :1].copy()
        for c in range(1, out.shape[2]):
            np.maximum(zmax, out[:, :, c : c + 1], out=zmax)
        out_y = out[picked]
        np.subtract(out, zmax, out=out)
        np.exp(out, out=out)
        sums = out.sum(axis=2, keepdims=True)
        nll = np.log(sums[:, :, 0]) + zmax[:, :, 0] - out_y
        losses = np.add.reduce(nll, axis=1) / rows
        out /= sums
        out[picked] -= 1.0
        out /= rows
    else:
        t = np.asarray(target, dtype=np.float64)
        size = rows * out.shape[2]
        np.subtract(out, t, out=out)
        losses = np.add.reduce((out * out).reshape(models, -1), axis=1) / size
        out *= 2.0
        out /= size
    return losses


def ref_store(w, layer, d, a):
    np.matmul(d.transpose(0, 2, 1), a, out=w[f"{layer}.weight"])
    np.add.reduce(d, axis=1, out=w[f"{layer}.bias"])


def ref_sgd_update(w, g, lr, work):
    np.multiply(g, lr, out=work, dtype=np.float64)
    np.subtract(w, work, out=work, dtype=np.float64)
    np.copyto(w, work)


def ref_step(master, x, target, kind, activation, lr):
    """One SGD step of the stacked float32 ``master`` dict, in place; returns the losses."""
    head = "cls" if kind == "cross_entropy" else "recon"
    depth = sum(name.endswith(".weight") and name.startswith("layers.") for name in master)
    trained = [n for n in master if n.startswith(("layers.", f"{head}."))]
    w = {n: master[n].astype(np.float64) for n in trained}
    out, acts = ref_forward(w, x, activation, head, depth)
    losses = ref_loss_from_outputs(out, target, kind)
    da = [np.empty_like(a) for a in acts[1:]]
    np.matmul(out, w[f"{head}.weight"], out=da[-1])
    ref_store(w, head, out, acts[-1])
    for i in reversed(range(depth)):
        dz = da[i]
        ref_times_act_grad(dz, acts[i + 1], activation)
        if i:
            np.matmul(dz, w[f"layers.{i}.weight"], out=da[i - 1])
        ref_store(w, f"layers.{i}", dz, acts[i])
    for n in trained:
        ref_sgd_update(master[n], w[n].astype(np.float32), lr, np.empty(master[n].shape))
    return losses


def ref_batches(data, batch, steps, seeds, denoise_std):
    """The minibatches of ``steps`` steps, slot j drawing from ``default_rng(seeds[j])``.

    Only labeled data may give the slots several seeds.
    """
    gens = {s: np.random.default_rng(s) for s in dict.fromkeys(seeds)}
    shared = len(gens) == 1
    if isinstance(data, LabeledBatch):
        idx = {s: g.integers(0, data.n, size=(steps, batch)) for s, g in gens.items()}
        for t in range(steps):
            rows = idx[seeds[0]][t] if shared else np.stack([idx[s][t] for s in seeds])
            yield data.x[rows], data.y[rows]
        return
    (g,) = gens.values()
    for _ in range(steps):
        clean = data.x[g.integers(0, data.n, size=batch)]
        yield clean + g.normal(0.0, denoise_std, size=clean.shape), clean


# (labeled, activation, models, batches); only labeled data trains on per-slot batches
BOUND_STEP_CASES = [
    (labeled, activation, models, batches)
    for labeled in (False, True)
    for activation in ("relu", "tanh")
    for models, batches in ((1, "shared"), (3, "shared"), (3, "per-slot"), (7, "shared"),
                            (7, "per-slot"))
    if labeled or batches == "shared"
]


@pytest.mark.bit_identity
@pytest.mark.parametrize("labeled,activation,models,batches", BOUND_STEP_CASES)
def test_bound_step_equals_the_unbound_reference(labeled, activation, models, batches):
    # 200 steps of the default 16-32-32-6 model, with a batch-size change
    # after 150 so the step is bound twice; one slot freshly zeroed
    arch = ModelArch(16, (32, 32), 6, activation)
    rows = toy_labeled(200, seed=70, arch=arch)
    data = rows if labeled else UnlabeledBatch(rows.x)
    kind = "cross_entropy" if labeled else "mse_reconstruction"
    start = [init_model(arch, 71 + j) for j in range(models)]
    start[-1] = apply_zeroing(start[-1], compute_ump_mask(start[-1], 40.0))
    seeds = [0] * models if batches == "shared" else [j % 2 + 3 * (j % 3) for j in range(models)]
    stack = ModelStack.of(start, kind)
    master = {t.name: np.stack([ps[t.name].data for ps in start]) for t in start[0].tensors}
    for steps, batch in ((150, 16), (50, 5)):
        cfg = TrainConfig(lr=0.05, batch=batch, updates=steps, seed=0, denoise_std=0.3)
        gens = {s: np.random.default_rng(s + steps) for s in dict.fromkeys(seeds)}
        losses = stack.train(data, cfg, steps, [gens[s] for s in seeds])
        ref = ref_batches(data, batch, steps, [s + steps for s in seeds], 0.3)
        for got, (x, target) in zip(losses, ref, strict=True):
            want = ref_step(master, x, target, kind, activation, cfg.lr)
            assert got.tobytes() == want.tobytes()
    for j, ps in enumerate(start):
        model = stack.model(j, ps, ps.role)
        for t in model.tensors:
            assert t.data.tobytes() == master[t.name][j].tobytes(), (j, t.name)


@pytest.mark.bit_identity
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_forward_only_calls_equal_the_unbound_reference(activation):
    # the forward-only entry points run the bound forward at S = 1 on a
    # row count no training batch uses
    arch = ModelArch(16, (32, 32), 6, activation)
    ps = init_model(arch, 80)
    data = toy_labeled(2000, seed=81, arch=arch)
    w = {t.name: t.data.astype(np.float64)[None] for t in ps.tensors}
    out, _ = ref_forward(w, data.x, activation, "cls", 2)
    assert outputs(ps, data.x).tobytes() == out[0].tobytes()
    assert evaluate(ps, data) == float(np.mean(out[0].argmax(axis=1) != data.y))
    ce = ref_loss_from_outputs(out, data.y, "cross_entropy")
    assert dataset_loss(ps, data) == float(ce[0])
    recon, _ = ref_forward(w, data.x, activation, "recon", 2)
    mse = ref_loss_from_outputs(recon, data.x, "mse_reconstruction")
    assert dataset_loss(ps, UnlabeledBatch(data.x)) == float(mse[0])


@pytest.mark.parametrize("label", [-1, ARCH.num_classes])
def test_labels_outside_the_classes_are_refused(label):
    # -1 would train as the last class and k would index past the head; every
    # entry point that reads labels refuses both with one message
    from pada.schedule import run_cells

    ps = init_model(ARCH, 90)
    data = toy_labeled(16, seed=91)
    data.y[3] = label
    cfg = TrainConfig(lr=0.05, batch=4, updates=2, seed=0)
    message = rf"class labels must lie in \[0, {ARCH.num_classes}\), got "
    for stage in (
        lambda: sgd_train(ps, data, cfg, 2, np.random.default_rng(0)),
        lambda: finetune_supervised(ps, data, cfg),
        lambda: ModelStack.of([ps], "cross_entropy").train(data, cfg, 2, [np.random.default_rng()]),
        lambda: loss_and_grads(ps, data),
        lambda: dataset_loss(ps, data),
        lambda: evaluate(ps, data),
        lambda: run_cells(ps, [(0, "DFT", None)], data, cfg),
    ):
        with pytest.raises(ValueError, match=message):
            stage()
