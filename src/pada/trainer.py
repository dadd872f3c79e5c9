"""Desk-scale feed-forward model: manual backprop, plain SGD, two task heads.

Every model owns a shared trunk of hidden layers plus two linear heads, a
reconstruction head (``recon.*``, used for denoising pre-training) and a
classification head (``cls.*``, used for supervised fine-tuning).  Both heads
exist from initialization, so parameter sets from every pipeline stage share
one structure and masks transfer between them without shape surgery.  Which
head trains is decided by the data, not by a setting: :func:`sgd_train`
trains ``cls.*`` with cross-entropy on a :class:`LabeledBatch` and ``recon.*``
with the denoising MSE on an :class:`UnlabeledBatch`.

Weights are stored as float32 (the checkpoint-canonical dtype); all forward,
loss and gradient arithmetic runs in float64.  The SGD kernel
(:func:`loss_and_grads`, :func:`sgd_step`) works on plain name->array weight
dicts; :func:`sgd_train` builds a ParameterSet only for the model it returns.
:func:`loss_on_weights` exposes the float64 core so finite-difference gradient
checks can perturb weights without float32 rounding.

No operation freezes a parameter: SGD updates every weight, including ones a
pruning pass just zeroed, which is what lets zeroed weights regrow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterSet, StructureMismatchError, Tensor

ACTIVATIONS = ("tanh", "relu")
HEADS = ("reconstruction", "classification")
LOSSES = ("mse_reconstruction", "cross_entropy")

_HEAD_PREFIX = {"reconstruction": "recon", "classification": "cls"}
_LOSS_HEAD = {"mse_reconstruction": "recon", "cross_entropy": "cls"}


class NonFiniteLossError(ArithmeticError):
    """A loss evaluation produced inf or NaN."""


class TrainingDivergedError(ArithmeticError):
    """Training hit a non-finite loss; carries the offending update index."""

    def __init__(self, step: int):
        super().__init__(f"training diverged (non-finite loss) at update {step}")
        self.step = step


@dataclass(frozen=True)
class ModelArch:
    """Layer widths and activation."""

    input_dim: int
    hidden: tuple[int, ...]
    num_classes: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("all layer widths must be positive")
        if not self.hidden:
            raise ValueError("at least one hidden layer is required")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters. ``updates=0`` is allowed and means "return the input".

    The loss is not a setting: :func:`sgd_train` takes it from the data type.
    ``denoise_std`` is read only when training on an :class:`UnlabeledBatch`.
    """

    lr: float
    batch: int
    updates: int
    seed: int
    denoise_std: float = 0.1

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch < 1:
            raise ValueError("batch size must be positive")
        if self.updates < 0:
            raise ValueError("update count must be >= 0")
        if self.denoise_std < 0:
            raise ValueError("denoise_std must be >= 0")


@dataclass
class UnlabeledBatch:
    """Feature rows only (the pre-training corpus)."""

    x: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass
class LabeledBatch:
    """Feature rows plus integer class labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"feature rows ({self.x.shape[0]}) and labels ({self.y.shape[0]}) differ"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]


def init_model(arch: ModelArch, seed) -> ParameterSet:
    """Fresh parameter set: trunk + both heads, biases zero, seeded Gaussian weights.

    ``seed`` may be an int or a ``numpy.random.Generator`` (the latter lets a
    caller keep drawing from the same stream after initialization).
    """
    rng = np.random.default_rng(seed)
    widths = [arch.input_dim, *arch.hidden]
    tensors = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        w = rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in)
        tensors.append(Tensor(f"layers.{i}.weight", w.astype(np.float32)))
        tensors.append(Tensor(f"layers.{i}.bias", np.zeros(fan_out, dtype=np.float32)))
    h_last = widths[-1]
    w = rng.standard_normal((arch.input_dim, h_last)) / math.sqrt(h_last)
    tensors.append(Tensor("recon.weight", w.astype(np.float32)))
    tensors.append(Tensor("recon.bias", np.zeros(arch.input_dim, dtype=np.float32)))
    w = rng.standard_normal((arch.num_classes, h_last)) / math.sqrt(h_last)
    tensors.append(Tensor("cls.weight", w.astype(np.float32)))
    tensors.append(Tensor("cls.bias", np.zeros(arch.num_classes, dtype=np.float32)))
    return ParameterSet(tensors, "pretrained", {"activation": arch.activation})


def weights64(ps: ParameterSet) -> dict[str, np.ndarray]:
    """Exact float64 copies of every tensor, keyed by name."""
    return {t.name: t.data.astype(np.float64) for t in ps.tensors}


def _activation_of(ps: ParameterSet) -> str:
    act = ps.meta.get("activation", "tanh")
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r} in parameter set metadata")
    return act


def _apply_act(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_grad_from_output(a: np.ndarray, activation: str) -> np.ndarray:
    # relu' at z == 0 is taken as 0, consistent with a == 0 there
    if activation == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


def _forward64(weights, x64, activation, head_prefix):
    acts = [x64]
    i = 0
    while f"layers.{i}.weight" in weights:
        z = acts[-1] @ weights[f"layers.{i}.weight"].T + weights[f"layers.{i}.bias"]
        acts.append(_apply_act(z, activation))
        i += 1
    if i == 0:
        raise ValueError("parameter set has no trunk layers (layers.0.weight missing)")
    wname, bname = f"{head_prefix}.weight", f"{head_prefix}.bias"
    if wname not in weights:
        raise ValueError(f"parameter set has no {wname} head tensor")
    out = acts[-1] @ weights[wname].T + weights[bname]
    return out, acts


def _loss_from_outputs(out: np.ndarray, target, kind: str):
    """Return (loss, d_loss/d_out). Target: labels for CE, a real matrix for MSE."""
    if kind == "cross_entropy":
        y = np.asarray(target, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != out.shape[0]:
            raise ValueError("cross_entropy requires one integer label per row")
        zmax = out.max(axis=1, keepdims=True)
        ez = np.exp(out - zmax)
        logsump = np.log(ez.sum(axis=1)) + zmax[:, 0]
        loss = float(np.mean(logsump - out[np.arange(out.shape[0]), y]))
        p = ez / ez.sum(axis=1, keepdims=True)
        dout = p
        dout[np.arange(out.shape[0]), y] -= 1.0
        dout /= out.shape[0]
    else:  # mse_reconstruction; callers check the kind
        t = np.asarray(target, dtype=np.float64)
        if t.shape != out.shape:
            raise ValueError(f"reconstruction target shape {t.shape} != output {out.shape}")
        diff = out - t
        loss = float(np.mean(diff * diff))
        dout = 2.0 * diff / diff.size
    return loss, dout


def _check_input(ps: ParameterSet, x: np.ndarray) -> np.ndarray:
    x64 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    input_dim = ps["layers.0.weight"].shape[1]
    if x64.shape[1] != input_dim:
        raise ValueError(f"input has {x64.shape[1]} features, model expects {input_dim}")
    return x64


def forward(ps: ParameterSet, x: np.ndarray, head: str = "classification") -> np.ndarray:
    """Batch forward pass through the trunk and the selected head (float64 out)."""
    if head not in HEADS:
        raise ValueError(f"unknown head kind {head!r}")
    x64 = _check_input(ps, x)
    out, _ = _forward64(weights64(ps), x64, _activation_of(ps), _HEAD_PREFIX[head])
    return out


def loss_on_weights(weights, x, target, kind: str, activation: str = "tanh") -> float:
    """Loss as a pure float64 function of a name->array weight dict.

    This is the exact function :func:`loss_and_grads` differentiates, exposed
    so finite-difference checks can perturb weights in full float64.
    """
    x64 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = _forward64(weights, x64, activation, _LOSS_HEAD[kind])
        loss, _ = _loss_from_outputs(out, target, kind)
    return loss


def loss_and_grads(weights, x, target, kind: str, activation: str = "tanh"):
    """Loss plus analytic gradients of :func:`loss_on_weights`, as a name->float32 dict.

    Tensors outside the active head's path get zero gradients.  Raises
    :class:`NonFiniteLossError` when the loss is inf or NaN.
    """
    if kind not in LOSSES:
        raise ValueError(f"unknown loss kind {kind!r}")
    x64 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    head = _LOSS_HEAD[kind]
    w = {name: arr.astype(np.float64, copy=False) for name, arr in weights.items()}
    # diverging runs may overflow to inf here; the finiteness check below is
    # the mechanism that turns that into an error
    with np.errstate(over="ignore", invalid="ignore"):
        out, acts = _forward64(w, x64, activation, head)
        loss, dout = _loss_from_outputs(out, target, kind)
    if not math.isfinite(loss):
        raise NonFiniteLossError(f"non-finite loss {loss!r}")

    g = {f"{head}.weight": dout.T @ acts[-1], f"{head}.bias": dout.sum(axis=0)}
    da = dout @ w[f"{head}.weight"]
    n_layers = len(acts) - 1
    for i in reversed(range(n_layers)):
        dz = da * _act_grad_from_output(acts[i + 1], activation)
        g[f"layers.{i}.weight"] = dz.T @ acts[i]
        g[f"layers.{i}.bias"] = dz.sum(axis=0)
        da = dz @ w[f"layers.{i}.weight"]
    grads = {
        name: g[name].astype(np.float32) if name in g else np.zeros(arr.shape, np.float32)
        for name, arr in w.items()
    }
    return loss, grads


def sgd_step(weights, grads, lr: float):
    """w' = w - lr * g for EVERY weight, zeroed or not (nothing is frozen).

    Takes and returns name->float32 dicts; the inputs are left unmodified.
    """
    if weights.keys() != grads.keys():
        raise StructureMismatchError(f"gradient keys {sorted(grads)} != weights {sorted(weights)}")
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            name: (w.astype(np.float64) - lr * grads[name].astype(np.float64)).astype(np.float32)
            for name, w in weights.items()
        }


def _loss_kind(data) -> str:
    """The loss ``data`` trains and is scored with: its type decides."""
    if not isinstance(data, (LabeledBatch, UnlabeledBatch)):
        raise ValueError(f"expected a LabeledBatch or an UnlabeledBatch, not {type(data).__name__}")
    return "cross_entropy" if isinstance(data, LabeledBatch) else "mse_reconstruction"


def sgd_train(
    ps: ParameterSet,
    data,
    cfg: TrainConfig,
    updates: int,
    rng: np.random.Generator,
    step_offset: int = 0,
):
    """Run ``updates`` SGD steps, sampling batches with replacement from ``rng``.

    The data type picks the loss: a :class:`LabeledBatch` trains the
    classification head with cross-entropy; an :class:`UnlabeledBatch` trains
    the reconstruction head by denoising, where the clean rows are the targets
    and the inputs get fresh ``cfg.denoise_std`` Gaussian corruption each
    step.  Returns a new parameter set, sharing no buffer with ``ps``, and
    the per-step training losses.
    The rng is consumed identically regardless of how callers chunk the
    updates, so chunked and single-call training produce bit-identical weights.
    """
    kind = _loss_kind(data)
    labeled = kind == "cross_entropy"
    n = data.n
    if n < 1:
        raise ValueError("training data is empty")
    _check_input(ps, data.x)
    activation = _activation_of(ps)
    weights = {t.name: t.data for t in ps.tensors}
    losses = []
    for step in range(updates):
        idx = rng.integers(0, n, size=cfg.batch)
        xb = data.x[idx]
        if labeled:
            x_in, target = xb, data.y[idx]
        else:
            x_in = xb + rng.normal(0.0, cfg.denoise_std, size=xb.shape)
            target = xb
        try:
            loss, grads = loss_and_grads(weights, x_in, target, kind, activation)
        except NonFiniteLossError as exc:
            raise TrainingDivergedError(step_offset + step) from exc
        losses.append(loss)
        weights = sgd_step(weights, grads, cfg.lr)
    # sgd_step returns fresh arrays; without updates these are still ps's own
    tensors = [
        Tensor(t.name, weights[t.name] if updates else t.data.copy(), t.prunable)
        for t in ps.tensors
    ]
    return ParameterSet(tensors, ps.role, dict(ps.meta)), losses


def dataset_loss(ps: ParameterSet, data) -> float:
    """Forward-only loss over a whole dataset, the loss :func:`sgd_train` trains it with."""
    kind = _loss_kind(data)
    target = data.y if kind == "cross_entropy" else data.x
    return loss_on_weights(weights64(ps), data.x, target, kind, _activation_of(ps))


def pretrain_denoising(arch: ModelArch, data: UnlabeledBatch, cfg: TrainConfig) -> ParameterSet:
    """Train input reconstruction from noise-corrupted input; the p(theta) analogue.

    With ``cfg.updates == 0`` this returns the seeded initialization unchanged.
    """
    if not isinstance(data, UnlabeledBatch):
        raise ValueError("denoising pre-training requires an UnlabeledBatch")
    rng = np.random.default_rng(cfg.seed)
    ps = init_model(arch, rng)
    ps, _ = sgd_train(ps, data, cfg, cfg.updates, rng)
    meta = {**ps.meta, "seed": str(cfg.seed), "updates": str(cfg.updates)}
    return ParameterSet(ps.tensors, "pretrained", meta)


def finetune_supervised(
    ps: ParameterSet,
    data: LabeledBatch,
    cfg: TrainConfig,
    role: str = "finetuned_target",
) -> ParameterSet:
    """Jointly train all weights with cross-entropy on the classification head.

    The input set is never modified.  The classification head exists from
    initialization and is reused as-is.
    """
    if not isinstance(data, LabeledBatch):
        raise ValueError("supervised fine-tuning requires a LabeledBatch")
    if "cls.weight" not in ps:
        raise ValueError("parameter set has no classification head (cls.weight)")
    rng = np.random.default_rng(cfg.seed)
    model, _ = sgd_train(ps, data, cfg, cfg.updates, rng)
    meta = {**model.meta, "seed": str(cfg.seed), "updates": str(cfg.updates)}
    return ParameterSet(model.tensors, role, meta)


def evaluate(ps: ParameterSet, data: LabeledBatch) -> float:
    """Misclassification fraction in [0, 1] on the classification head."""
    if "cls.weight" not in ps:
        raise ValueError("parameter set has no classification head (cls.weight)")
    if data.n < 1:
        raise ValueError("evaluation data is empty")
    logits = forward(ps, data.x, "classification")
    preds = logits.argmax(axis=1)
    return float(np.mean(preds != data.y))
