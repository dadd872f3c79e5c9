import numpy as np
import pytest

from pada.params import ParameterSet, StructureMismatchError, Tensor
from pada.pruning import apply_zeroing, compute_ump_mask
from pada.trainer import (
    LabeledBatch,
    ModelArch,
    ModelStack,
    NonFiniteLossError,
    TrainConfig,
    TrainingDivergedError,
    UnlabeledBatch,
    dataset_loss,
    evaluate,
    finetune_supervised,
    forward,
    init_model,
    loss_and_grads,
    loss_on_weights,
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


def weights_of(ps):
    """The float32 name->array dict the training kernel works on."""
    return {t.name: t.data for t in ps.tensors}


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


def zero_all(ps):
    out = ps.copy()
    for t in out.tensors:
        t.data = np.zeros_like(t.data)
    return out


def test_forward_zero_weights_tanh_zero_output():
    ps = zero_all(init_model(ARCH, 0))
    x = np.random.default_rng(1).normal(size=(5, 6))
    assert np.all(forward(ps, x) == 0.0)
    # the reconstruction head's squared error against an all-zero target
    assert loss_on_weights(weights_of(ps), x, np.zeros_like(x), "mse_reconstruction") == 0.0


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
    out = forward(ps, x)
    # rows of W dot x: [1+4+1.5, 0-2+0.5, 2+1-1] then + bias
    np.testing.assert_allclose(out, [[6.5 + 0.5, -1.5 + 0.0, 2.0 - 1.0]], atol=1e-6)


def test_forward_batch_row_independence():
    ps = init_model(ARCH, 2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 6))
    full = forward(ps, x)
    single = forward(ps, x[4:5])
    # rows are independent; BLAS kernels for different batch shapes may differ
    # in the last ulp, so compare at machine precision rather than bit-exactly
    np.testing.assert_allclose(full[4:5], single, rtol=0, atol=1e-12)


def test_forward_dim_mismatch():
    ps = init_model(ARCH, 0)
    with pytest.raises(ValueError, match="features"):
        forward(ps, np.zeros((2, 7)))


def test_cross_entropy_perfect_prediction_near_zero():
    ps = zero_all(init_model(ARCH, 0))
    ps["cls.bias"].data = np.array([50.0, 0.0, 0.0, 0.0], dtype=np.float32)
    x = np.zeros((8, 6))
    y = np.zeros(8, dtype=np.int64)
    loss, _ = loss_and_grads(weights_of(ps), x, y, "cross_entropy")
    assert 0.0 <= loss < 1e-12


def test_mse_doubling_error_quadruples_loss():
    ps = init_model(ARCH, 4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 6))
    out = recon_output(ps, x)
    e = rng.normal(size=out.shape)
    loss1, _ = loss_and_grads(weights_of(ps), x, out - e, "mse_reconstruction")
    loss2, _ = loss_and_grads(weights_of(ps), x, out - 2 * e, "mse_reconstruction")
    assert loss2 == pytest.approx(4.0 * loss1, rel=1e-9)


def finite_difference_max_rel_err(ps, x, target, kind, n_coords=120, eps=1e-4, seed=0):
    """Central differences on the float64 core vs analytic gradients."""
    w = weights64(ps)
    act = ps.meta.get("activation", "tanh")
    _, grads = loss_and_grads(w, x, target, kind, act)
    rng = np.random.default_rng(seed)
    # sample only tensors on the active path; inactive-head grads are zero by
    # construction and checked separately
    head = "cls" if kind == "cross_entropy" else "recon"
    names = [t.name for t in ps.tensors if t.name.startswith(("layers.", head))]
    checked = 0
    max_rel = 0.0
    while checked < n_coords:
        name = names[int(rng.integers(len(names)))]
        arr = w[name]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        orig = arr[idx]
        arr[idx] = orig + eps
        lp = loss_on_weights(w, x, target, kind, act)
        arr[idx] = orig - eps
        lm = loss_on_weights(w, x, target, kind, act)
        arr[idx] = orig
        fd = (lp - lm) / (2.0 * eps)
        g = float(grads[name][idx])
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
    _, grads = loss_and_grads(weights_of(ps), data.x, data.y, "cross_entropy")
    assert grads.keys() == weights_of(ps).keys()
    assert all(g.dtype == np.float32 for g in grads.values())
    assert np.all(grads["recon.weight"] == 0.0)
    assert np.all(grads["recon.bias"] == 0.0)


def test_sgd_step_lr_zero_identity():
    ps = init_model(ARCH, 19)
    data = toy_labeled(16, seed=20)
    weights = weights_of(ps)
    _, grads = loss_and_grads(weights, data.x, data.y, "cross_entropy")
    out = sgd_step(weights, grads, 0.0)
    assert list(out) == list(weights)
    assert all(out[k].tobytes() == weights[k].tobytes() for k in weights)


def test_sgd_step_regrows_zero_weight():
    weights = {"w": np.array([0.0], dtype=np.float32)}
    grads = {"w": np.array([-1.0], dtype=np.float32)}
    out = sgd_step(weights, grads, 0.1)
    assert out["w"][0] == pytest.approx(0.1)


def test_sgd_step_hand_computed():
    weights = {"w": np.array([0.5, -0.25], dtype=np.float32)}
    grads = {"w": np.array([0.2, 0.4], dtype=np.float32)}
    out = sgd_step(weights, grads, 0.5)
    np.testing.assert_allclose(out["w"], [0.4, -0.45], rtol=1e-7)
    assert out["w"].dtype == np.float32
    # the inputs are left unmodified
    assert weights["w"].tolist() == [0.5, -0.25]
    assert grads["w"].tolist() == pytest.approx([0.2, 0.4])


def test_sgd_step_structure_mismatch():
    weights = {"w": np.zeros(2, dtype=np.float32)}
    grads = {"v": np.zeros(2, dtype=np.float32)}
    with pytest.raises(StructureMismatchError):
        sgd_step(weights, grads, 0.1)


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
    ps = init_model(ARCH, 30)
    data = toy_labeled(32, seed=31)
    w, act = weights64(ps), "tanh"
    assert dataset_loss(ps, data) == loss_on_weights(w, data.x, data.y, "cross_entropy", act)
    rows = UnlabeledBatch(data.x)
    assert dataset_loss(ps, rows) == loss_on_weights(w, rows.x, rows.x, "mse_reconstruction", act)
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
    headless = ParameterSet([Tensor("layers.0.weight", np.ones((4, 6), dtype=np.float32))])
    data = toy_labeled(8, seed=33)
    cfg = TrainConfig(lr=0.05, batch=4, updates=1, seed=0)
    with pytest.raises(ValueError, match="classification head"):
        finetune_supervised(headless, data, cfg)


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


def test_nonfinite_loss_error():
    ps = init_model(ModelArch(2, (3,), 2, activation="relu"), 44)
    x = np.full((2, 2), 1e300)
    with pytest.raises(NonFiniteLossError):
        loss_and_grads(weights_of(ps), x, x, "mse_reconstruction", "relu")


def test_losses_and_grads_finite_on_generated_data():
    from pada.data import DomainShiftSpec, gen_domain_shift

    spec = DomainShiftSpec(
        num_classes=4, input_dim=6, source_unlabeled=200, source_labeled=200, target_eval=100
    )
    task = gen_domain_shift(48, spec)
    ps = init_model(ARCH, 49)
    weights = weights_of(ps)
    loss, grads = loss_and_grads(weights, task.target_labeled.x, task.target_labeled.y, "cross_entropy")
    assert np.isfinite(loss)
    loss2, grads2 = loss_and_grads(
        weights, task.source_unlabeled.x, task.source_unlabeled.x, "mse_reconstruction"
    )
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
    losses = stack.train(data, cfg, cfg.updates, np.random.default_rng(cfg.seed))
    for j, ps in enumerate(models):
        alone, alone_losses = sgd_train(ps, data, cfg, cfg.updates, np.random.default_rng(cfg.seed))
        assert stack.model(j, ps, ps.role) == alone
        assert [float(step[j]) for step in losses] == alone_losses
