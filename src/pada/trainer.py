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
loss and gradient arithmetic runs in float64.  One training kernel,
:class:`ModelStack`, trains S models of one structure at once: every step
feeds all of them the same minibatch, every product is one ``np.matmul``
over the stack, and each model ends bit-identical to training it alone.
:func:`sgd_train` is its S = 1 call and builds a ParameterSet only for the
model it returns; :func:`loss_and_grads` and :func:`sgd_step` expose its
backward pass and its update on plain name->array weight dicts, and
:func:`forward`, :func:`evaluate` and :func:`dataset_loss` use its forward
pass.  :func:`loss_on_weights` exposes the float64 core so finite-difference
gradient checks can perturb weights without float32 rounding.

No operation freezes a parameter: SGD updates every weight, including ones a
pruning pass just zeroed, which is what lets zeroed weights regrow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterSet, StructureMismatchError, Tensor

ACTIVATIONS = ("tanh", "relu")
LOSSES = ("mse_reconstruction", "cross_entropy")

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


def _trunk_depth(names, head: str) -> int:
    """Number of trunk layers, after checking the tensors a forward pass reads exist."""
    depth = 0
    while f"layers.{depth}.weight" in names:
        depth += 1
    if depth == 0:
        raise ValueError("parameter set has no trunk layers (layers.0.weight missing)")
    if f"{head}.weight" not in names:
        raise ValueError(f"parameter set has no {head}.weight head tensor")
    return depth


def _forward(w, x, activation: str, head: str, depth: int):
    """Outputs of S stacked models on one batch, plus every layer's activations.

    ``w`` maps names to float64 arrays with a leading stack axis of S models;
    all of them read the same (batch, input) matrix ``x``.  ``np.matmul`` over
    the stack computes each slice exactly as the 2-D product of that model
    alone would.
    """
    acts = [x]
    for i in range(depth):
        z = np.matmul(acts[-1], w[f"layers.{i}.weight"].transpose(0, 2, 1))
        z += w[f"layers.{i}.bias"][:, None, :]
        acts.append(_apply_act(z, activation))
    out = np.matmul(acts[-1], w[f"{head}.weight"].transpose(0, 2, 1))
    out += w[f"{head}.bias"][:, None, :]
    return out, acts


def _loss_from_outputs(out: np.ndarray, target, kind: str):
    """Per-model losses (S,) and d_loss/d_out of stacked outputs (S, batch, k).

    Every model shares ``target``: labels for CE, a real matrix for MSE.  Each
    model's loss is a mean over its own batch (and, for MSE, its outputs).
    """
    rows = out.shape[1]
    if kind == "cross_entropy":
        y = np.asarray(target, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != rows:
            raise ValueError("cross_entropy requires one integer label per row")
        zmax = out.max(axis=2, keepdims=True)
        ez = np.exp(out - zmax)
        sums = ez.sum(axis=2, keepdims=True)
        picked = np.arange(rows)
        nll = np.log(sums[:, :, 0]) + zmax[:, :, 0] - out[:, picked, y]
        losses = np.add.reduce(nll, axis=1) / rows
        dout = ez / sums
        dout[:, picked, y] -= 1.0
        dout /= rows
    else:  # mse_reconstruction; callers check the kind
        t = np.asarray(target, dtype=np.float64)
        if t.shape != out.shape[1:]:
            raise ValueError(f"reconstruction target shape {t.shape} != output {out.shape[1:]}")
        diff = out - t
        losses = np.add.reduce((diff * diff).reshape(len(out), -1), axis=1) / t.size
        dout = 2.0 * diff / t.size
    return losses, dout


def _sgd_update(w: np.ndarray, g: np.ndarray, lr: float, work: np.ndarray) -> None:
    """In place ``w = f32(f64(w) - lr * f64(g))``; ``work`` is float64 scratch like ``w``."""
    np.multiply(g, lr, out=work, dtype=np.float64)
    np.subtract(w, work, out=work, dtype=np.float64)
    np.copyto(w, work)


class ModelStack:
    """S same-structure models trained as one: one SGD step advances them all.

    A step feeds one minibatch to every model, runs forward and backward in
    float64 with ``np.matmul`` over a leading stack axis, rounds the
    gradients to float32 and updates the float32 masters in place,
    ``f32(f64(w) - lr * f64(g))``: each slice gets exactly the bits it would
    get trained alone.  Only the trunk and the head the loss reads are
    trained; the other head's gradient is exactly 0, and ``w - lr * 0 == w``.
    The trained masters of a slice are one row of ``flat``, next to a float64
    working copy and a float32 gradient of the same shape, allocated once.
    So copying the masters to the working copy, rounding the gradients and
    the update are one ufunc call each per step, and no step allocates a
    weight-sized array.  ``master``, ``work`` and ``grad`` view these rows
    per tensor.

    Slices carry ids ``0..S-1`` for their whole life: a slice whose loss turns
    non-finite leaves the stack before that step's update, and ``diverged``
    maps its id to the global update index.
    """

    def __init__(self, weights: list, kind: str, activation: str = "tanh"):
        if kind not in LOSSES:
            raise ValueError(f"unknown loss kind {kind!r}")
        self.kind, self.activation, self.head = kind, activation, _LOSS_HEAD[kind]
        self.depth = _trunk_depth(weights[0], self.head)
        names = list(weights[0])
        self.trained = [n for n in names if n.startswith(("layers.", f"{self.head}."))]
        self.shapes = {n: np.shape(weights[0][n]) for n in self.trained}
        rows = [np.concatenate([np.ravel(w[n]) for n in self.trained]) for w in weights]
        self.flat = np.stack(rows)
        self.flat_grad = np.empty(self.flat.shape, np.float32)
        self.fixed = {n: np.stack([w[n] for w in weights]) for n in names if n not in self.trained}
        self.ids = list(range(len(weights)))
        self.diverged: dict[int, int] = {}
        self._views()

    def _views(self) -> None:
        self.flat_work = np.empty(self.flat.shape)
        self.master, self.work, self.grad = dict(self.fixed), {}, {}
        start = 0
        for name in self.trained:
            shape = (len(self.flat), *self.shapes[name])
            cols = slice(start, start + math.prod(self.shapes[name]))
            self.master[name] = self.flat[:, cols].reshape(shape)
            self.work[name] = self.flat_work[:, cols].reshape(shape)
            self.grad[name] = self.flat_grad[:, cols].reshape(shape)
            start = cols.stop

    @classmethod
    def of(cls, models: list, kind: str) -> "ModelStack":
        """Stack of parameter sets; the first one's metadata names the activation."""
        weights = [{t.name: t.data for t in ps.tensors} for ps in models]
        return cls(weights, kind, _activation_of(models[0]))

    def grads(self, x: np.ndarray, target) -> np.ndarray:
        """Per-slice losses at one batch; leaves the float32 gradients in ``grad``."""
        w = self.work
        np.copyto(self.flat_work, self.flat)
        out, acts = _forward(w, x, self.activation, self.head, self.depth)
        losses, dout = _loss_from_outputs(out, target, self.kind)
        # each gradient overwrites its tensor's working copy, which the
        # backward pass has read for the last time by then
        da = np.matmul(dout, w[f"{self.head}.weight"])
        self._store(self.head, dout, acts[-1])
        for i in reversed(range(self.depth)):
            dz = da * _act_grad_from_output(acts[i + 1], self.activation)
            if i:
                da = np.matmul(dz, w[f"layers.{i}.weight"])
            self._store(f"layers.{i}", dz, acts[i])
        np.copyto(self.flat_grad, self.flat_work)
        return losses

    def _store(self, layer: str, d: np.ndarray, a: np.ndarray) -> None:
        """Weight and bias gradients of ``layer`` from its output grads and its inputs."""
        np.matmul(d.transpose(0, 2, 1), a, out=self.work[f"{layer}.weight"])
        np.add.reduce(d, axis=1, out=self.work[f"{layer}.bias"])

    def train(self, data, cfg: "TrainConfig", updates: int, rng, step_offset: int = 0) -> list:
        """Run ``updates`` SGD steps, drawing one batch per step from ``rng`` for every slice.

        The draws are those of :func:`sgd_train`, so a stack consumes ``rng``
        as one model trained alone would.  Returns each step's losses of the
        slices in the stack at that step.
        """
        labeled = self.kind == "cross_entropy"
        losses = []
        # diverging slices may overflow to inf; the finiteness check below
        # is the mechanism that turns that into a divergence
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(updates):
                if not self.ids:
                    break
                idx = rng.integers(0, data.n, size=cfg.batch)
                xb = data.x[idx]
                if labeled:
                    x_in, target = xb, data.y[idx]
                else:
                    x_in = xb + rng.normal(0.0, cfg.denoise_std, size=xb.shape)
                    target = xb
                step_losses = self.grads(x_in, target)
                losses.append(step_losses)
                finite = np.isfinite(step_losses)
                if not finite.all():
                    for pos in np.flatnonzero(~finite):
                        self.diverged[self.ids[pos]] = step_offset + step
                    self._keep(np.flatnonzero(finite))
                _sgd_update(self.flat, self.flat_grad, cfg.lr, self.flat_work)
        return losses

    def _keep(self, positions: np.ndarray) -> None:
        self.ids = [self.ids[p] for p in positions]
        self.flat, self.flat_grad = self.flat[positions], self.flat_grad[positions]
        self.fixed = {n: m[positions] for n, m in self.fixed.items()}
        self._views()

    def model(self, sid: int, template: ParameterSet, role: str) -> ParameterSet:
        """A copy of slice ``sid`` with ``template``'s names, prunable flags and metadata."""
        pos = self.ids.index(sid)
        tensors = [
            Tensor(t.name, self.master[t.name][pos].copy(), t.prunable) for t in template.tensors
        ]
        return ParameterSet(tensors, role, dict(template.meta))

    def set(self, sid: int, ps: ParameterSet) -> None:
        """Overwrite slice ``sid`` with the values of ``ps``."""
        pos = self.ids.index(sid)
        for t in ps.tensors:
            self.master[t.name][pos] = t.data


def _stack_of_one(weights) -> dict:
    """Float64 copies of a name->array dict, each with a leading stack axis of 1."""
    return {name: np.asarray(arr, dtype=np.float64)[None] for name, arr in weights.items()}


def _check_input(ps: ParameterSet, x: np.ndarray) -> np.ndarray:
    x64 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    input_dim = ps["layers.0.weight"].shape[1]
    if x64.shape[1] != input_dim:
        raise ValueError(f"input has {x64.shape[1]} features, model expects {input_dim}")
    return x64


def forward(ps: ParameterSet, x: np.ndarray) -> np.ndarray:
    """Batch forward pass through the trunk and the classification head (float64 out)."""
    x64 = _check_input(ps, x)
    w = _stack_of_one({t.name: t.data for t in ps.tensors})
    out, _ = _forward(w, x64, _activation_of(ps), "cls", _trunk_depth(w, "cls"))
    return out[0]


def loss_on_weights(weights, x, target, kind: str, activation: str = "tanh") -> float:
    """Loss as a pure float64 function of a name->array weight dict.

    This is the exact function :func:`loss_and_grads` differentiates, exposed
    so finite-difference checks can perturb weights in full float64.
    """
    head = _LOSS_HEAD[kind]
    w = _stack_of_one(weights)
    x64 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = _forward(w, x64, activation, head, _trunk_depth(w, head))
        losses, _ = _loss_from_outputs(out, target, kind)
    return float(losses[0])


def loss_and_grads(weights, x, target, kind: str, activation: str = "tanh"):
    """Loss plus analytic gradients of :func:`loss_on_weights`, as a name->float32 dict.

    The S = 1 call of :class:`ModelStack`'s backward pass; ``weights`` may
    hold float32 or float64 arrays.  Tensors outside the active head's path
    get zero gradients.  Raises :class:`NonFiniteLossError` when the loss is
    inf or NaN.
    """
    stack = ModelStack([weights], kind, activation)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(stack.grads(np.atleast_2d(np.asarray(x, dtype=np.float64)), target)[0])
    if not math.isfinite(loss):
        raise NonFiniteLossError(f"non-finite loss {loss!r}")
    return loss, {
        name: stack.grad[name][0] if name in stack.grad else np.zeros(arr.shape, np.float32)
        for name, arr in weights.items()
    }


def sgd_step(weights, grads, lr: float):
    """w' = w - lr * g for EVERY weight, zeroed or not (nothing is frozen).

    The S = 1 call of :class:`ModelStack`'s update.  Takes and returns
    name->float32 dicts; the inputs are left unmodified.
    """
    if weights.keys() != grads.keys():
        raise StructureMismatchError(f"gradient keys {sorted(grads)} != weights {sorted(weights)}")
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, w in weights.items():
            out[name] = np.array(w, dtype=np.float32)
            _sgd_update(out[name], grads[name], lr, np.empty(out[name].shape))
    return out


def _loss_kind(data) -> str:
    """The loss ``data`` trains and is scored with: its type decides."""
    if not isinstance(data, (LabeledBatch, UnlabeledBatch)):
        raise ValueError(f"expected a LabeledBatch or an UnlabeledBatch, not {type(data).__name__}")
    return "cross_entropy" if isinstance(data, LabeledBatch) else "mse_reconstruction"


def check_data(ps: ParameterSet, data) -> str:
    """Refuse data ``ps`` cannot train on: wrong type, no rows, wrong width.

    Returns the loss kind the data trains with.
    """
    kind = _loss_kind(data)
    if data.n < 1:
        raise ValueError("training data is empty")
    _check_input(ps, data.x)
    return kind


def sgd_train(
    ps: ParameterSet,
    data,
    cfg: TrainConfig,
    updates: int,
    rng: np.random.Generator,
):
    """Run ``updates`` SGD steps, sampling batches with replacement from ``rng``.

    The S = 1 call of :meth:`ModelStack.train`.  The data type picks the
    loss: a :class:`LabeledBatch` trains the classification head with
    cross-entropy; an :class:`UnlabeledBatch` trains the reconstruction head
    by denoising, where the clean rows are the targets and the inputs get
    fresh ``cfg.denoise_std`` Gaussian corruption each step.  Returns a new
    parameter set, sharing no buffer with ``ps``, and the per-step training
    losses.  A non-finite loss raises :class:`TrainingDivergedError` with
    the step's index within this call.
    The rng is consumed identically regardless of how callers chunk the
    updates, so chunked and single-call training produce bit-identical weights.
    """
    stack = ModelStack.of([ps], check_data(ps, data))
    losses = stack.train(data, cfg, updates, rng)
    if stack.diverged:
        raise TrainingDivergedError(stack.diverged[0])
    return stack.model(0, ps, ps.role), [float(step[0]) for step in losses]


def dataset_loss(ps: ParameterSet, data) -> float:
    """Forward-only loss over a whole dataset, the loss :func:`sgd_train` trains it with."""
    kind = _loss_kind(data)
    target = data.y if kind == "cross_entropy" else data.x
    weights = {t.name: t.data for t in ps.tensors}
    return loss_on_weights(weights, data.x, target, kind, _activation_of(ps))


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
    logits = forward(ps, data.x)
    preds = logits.argmax(axis=1)
    return float(np.mean(preds != data.y))
