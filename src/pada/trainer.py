"""Desk-scale feed-forward model: manual backprop, plain SGD, two task heads.

Every model owns a shared trunk of tanh hidden layers plus two linear heads, a
reconstruction head (``recon.*``, used for denoising pre-training) and a
classification head (``cls.*``, used for supervised fine-tuning).  Both heads
exist from initialization, so parameter sets from every pipeline stage share
one structure and masks transfer between them without shape surgery.  Which
head trains is decided by the data, not by a setting: a :class:`LabeledBatch`
trains ``cls.*`` with cross-entropy and an :class:`UnlabeledBatch` trains
``recon.*`` with the denoising MSE.

Weights are stored as float32 (the checkpoint-canonical dtype); all forward,
loss and gradient arithmetic runs in float64.  The one training kernel,
:class:`ModelStack`, trains S models of one structure at once: every step
feeds each model the minibatch of its own random stream, models that share
a stream share its minibatch, every product is one ``np.matmul`` over the
stack, and each model ends bit-identical to training it alone.  A stack
binds its step once per batch size: it allocates the step's buffers and
builds every view and index array the step reads, so each step is only a
fixed sequence of ufunc and matmul calls on bound operands.

Every one-model function is an S = 1 call of the kernel on a
:class:`~pada.params.ParameterSet` and a batch, which :func:`check_data`
checks once and whose type picks the loss.  :func:`sgd_train` trains and
builds a ParameterSet only for the model it returns; :func:`loss_and_grads`
and :func:`sgd_step` are one step's backward pass and update; and
:func:`evaluate` and :func:`dataset_loss` run the forward pass alone,
without gradient buffers.

No operation freezes a parameter: SGD updates every weight, including ones a
pruning pass just zeroed, which is what lets zeroed weights regrow.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .params import NonNegativeInt, ParameterSet, StructureMismatchError, Tensor

_LOSS_HEAD = {"mse_reconstruction": "recon", "cross_entropy": "cls"}
_HEAD_NAME = {"recon": "reconstruction", "cls": "classification"}


class TrainingDivergedError(ArithmeticError):
    """Training hit a non-finite loss; carries the offending update index and the run, if named."""

    def __init__(self, step: int, run: str | None = None):
        named = "" if run is None else f"run {run}: "
        super().__init__(f"{named}training diverged (non-finite loss) at update {step}")
        self.step, self.run = step, run

    def __reduce__(self):  # pickle rebuilds from the arguments, not from the message
        return type(self), (self.step, self.run)


@dataclass(frozen=True)
class ModelArch:
    """Layer widths; every hidden layer is a tanh layer."""

    input_dim: int
    hidden: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("all layer widths must be positive")
        if not self.hidden:
            raise ValueError("at least one hidden layer is required")


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters. ``updates=0`` is allowed and means "return the input".

    The loss is not a setting: :func:`sgd_train` takes it from the data type.
    ``denoise_std`` is read only when training on an :class:`UnlabeledBatch`.
    """

    lr: float
    batch: int
    updates: int
    seed: NonNegativeInt  # numpy's generators refuse a negative one, but only when training starts
    denoise_std: float = 0.1

    def __post_init__(self):
        if not self.lr > 0:  # NaN fails each bound
            raise ValueError("learning rate must be positive")
        if self.batch < 1:
            raise ValueError("batch size must be positive")
        if self.updates < 0:
            raise ValueError("update count must be >= 0")
        if not self.denoise_std >= 0:
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


TensorSpec = namedtuple("TensorSpec", "name shape prunable")  # a model's tensor, without values


def model_layout(arch: ModelArch) -> list[TensorSpec]:
    """The tensors of a model of ``arch`` in checkpoint order: trunk, then recon and cls heads.

    Each layer is a ``(fan_out, fan_in)`` weight, prunable, and then its bias.
    """
    widths = [arch.input_dim, *arch.hidden]
    layers = [(f"layers.{i}", *io) for i, io in enumerate(zip(widths[1:], widths[:-1]))]
    layers += [("recon", arch.input_dim, widths[-1]), ("cls", arch.num_classes, widths[-1])]
    return [spec for name, fan_out, fan_in in layers for spec in (
        TensorSpec(f"{name}.weight", (fan_out, fan_in), True),
        TensorSpec(f"{name}.bias", (fan_out,), False),
    )]


def init_model(arch: ModelArch, seed) -> ParameterSet:
    """Fresh parameter set laid out as :func:`model_layout` says: biases zero, seeded
    Gaussian weights scaled by ``1/sqrt(fan_in)``, drawn in layout order.

    ``seed`` may be an int or a ``numpy.random.Generator`` (the latter lets a
    caller keep drawing from the same stream after initialization).
    """
    rng = np.random.default_rng(seed)
    tensors = []
    for name, shape, prunable in model_layout(arch):  # Tensor rounds to float32
        w = rng.standard_normal(shape) / math.sqrt(shape[1]) if prunable else np.zeros(shape)
        tensors.append(Tensor(name, w, prunable))
    return ParameterSet(tensors, "pretrained", {"activation": "tanh"})


def _trunk_depth(names, head: str) -> int:
    """Number of trunk layers, after checking the tensors a forward pass reads exist."""
    depth = 0
    while f"layers.{depth}.weight" in names:
        depth += 1
    layers = [f"layers.{i}" for i in range(max(depth, 1))] + [head]
    for name in (f"{layer}.{part}" for layer in layers for part in ("weight", "bias")):
        if name not in names:
            raise ValueError(f"parameter set has no {name}, which its {_HEAD_NAME[head]} head reads")
    return depth


def _check_labels(y: np.ndarray, classes: int) -> None:
    """Refuse class labels outside ``[0, classes)``, which indexing would wrap or miss."""
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ValueError(
            f"class labels must lie in [0, {classes}), got {int(y.min())}..{int(y.max())}"
        )


def _sgd_update(w: np.ndarray, g: np.ndarray, lr: float, work: np.ndarray) -> None:
    """In place ``w = f32(f64(w) - lr * f64(g))``; ``work`` is float64 scratch like ``w``."""
    # np.subtract(w, work, out=w, dtype=np.float64) rounds the same bits in
    # one call, but casts both operands through numpy's buffers: no faster
    # at S <= 7 and slower at S = 70 than subtracting and then rounding
    np.multiply(g, lr, out=work, dtype=np.float64)
    np.subtract(w, work, out=work, dtype=np.float64)
    np.copyto(w, work)


def _minibatches(data, cfg: "TrainConfig", updates: int, gens: list, pick):
    """Each step's (inputs, targets), with the draws :func:`sgd_train` makes.

    On labeled data each generator draws all ``updates`` steps' row indices
    in one call, which yields the same integers as one call per step (numpy
    draws bounded integers one after another, and the bit generator keeps
    the unused half of a 64-bit draw in its own state), and ``pick`` (an
    index array over the generators, or 0) selects each slot's batch.
    Denoising reads one generator, which draws each step's rows, then noise.
    """
    if isinstance(data, LabeledBatch):
        draws = [g.integers(0, data.n, size=(updates, cfg.batch)) for g in gens]
        for idx in np.stack(draws, axis=1):
            idx = idx[pick]
            yield data.x.take(idx, axis=0), data.y.take(idx)
        return
    (g,) = gens
    for _ in range(updates):
        rows = data.x.take(g.integers(0, data.n, size=cfg.batch), axis=0)
        yield rows + g.normal(0.0, cfg.denoise_std, size=rows.shape), rows


class ModelStack:
    """S same-structure models trained as one: one SGD step advances them all.

    A step feeds each model its own minibatch, or one minibatch to all,
    runs forward and backward in float64 with ``np.matmul`` over a leading
    stack axis, rounds the gradients to float32 and updates the float32
    masters in place, ``f32(f64(w) - lr * f64(g))``: each slice gets exactly
    the bits it would get trained alone.  Only the trunk and the head the
    loss reads are trained; the other head's gradient is exactly 0, and
    ``w - lr * 0 == w``.  The trained masters of a slice are one row of
    ``flat``, next to a float64 working copy and a float32 gradient of the
    same shape, allocated once.  So copying the masters to the working copy,
    rounding the gradients and the update are one ufunc call each per step,
    and no step allocates a weight-sized array.  ``master`` and
    :meth:`view` view these rows per tensor.  Byte identity pins the weight
    layout: multiplying by a contiguous transposed copy of the weights takes
    another BLAS path and changes bits.

    The step is bound once per batch size: the first step on a batch size
    allocates the activations, their gradients and the output gradients,
    and binds every operand a step reads (transposed weight views, bias
    views broadcast over the rows, the gradient destinations, the loss's
    index arrays and class columns), so a step only runs its ufunc calls.
    A forward-only call binds no gradient buffer.

    Slices keep their slot ``0..S-1`` for life.  A slice whose loss turns
    non-finite stays in its slot and keeps stepping, but is never read
    again; ``diverged`` maps its slot to the global update index.  Each
    slice is its own 2-D product and its own elementwise update, so a NaN
    slice cannot change another slice's bits.
    """

    def __init__(self, weights: list, kind: str):
        if kind not in _LOSS_HEAD:
            raise ValueError(f"unknown loss kind {kind!r}")
        self.kind, self.head = kind, _LOSS_HEAD[kind]
        self.depth = _trunk_depth(weights[0], self.head)
        self.layers = [f"layers.{i}" for i in range(self.depth)] + [self.head]
        names = list(weights[0])
        self.trained = [n for n in names if n.startswith(("layers.", f"{self.head}."))]
        rows = [np.concatenate([np.ravel(w[n]) for n in self.trained]) for w in weights]
        self.flat = np.stack(rows)
        self.flat_work = np.empty(self.flat.shape)
        self.flat_grad = np.empty(self.flat.shape, np.float32)
        self.master = {n: np.array([w[n] for w in weights]) for n in names if n not in self.trained}
        self.layout = {}  # trained name -> (its columns of flat, one slice's shape)
        self.diverged: dict[int, int] = {}
        start = 0
        for name in self.trained:
            shape = np.shape(weights[0][name])
            self.layout[name] = (slice(start, start + math.prod(shape)), shape)
            self.master[name] = self.view(self.flat, name)
            start += math.prod(shape)
        self.width = self.layout[f"{self.head}.weight"][1][0]  # the loss head's outputs
        self._rows, self._backward_ops = None, []  # the bound step, see _bind

    @classmethod
    def of(cls, models: list, kind: str) -> "ModelStack":
        """Stack of parameter sets of tanh models, as the trainer writes them; a set built by
        hand without ``activation`` metadata is taken as one."""
        for ps in models:
            if ps.meta.get("activation", "tanh") != "tanh":
                raise ValueError(f"a stack trains tanh models, not {ps.meta['activation']!r} ones")
        return cls([{t.name: t.data for t in ps.tensors} for ps in models], kind)

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """Trained tensor ``name`` of every slice as a view of ``flat``, ``flat_work`` or
        ``flat_grad``."""
        cols, shape = self.layout[name]
        return flat[:, cols].reshape(len(flat), *shape)

    def _bind(self, rows: int) -> None:
        """Allocate the forward and loss buffers for ``rows`` rows per slice; bind their operands.

        The forward operands are, per layer from the input up to the head,
        the transposed working weights, the working bias broadcast over the
        rows and the layer's output buffer.
        """
        models = len(self.flat)
        self._acts = [None]  # each layer's input, None for the step's input
        forward = []
        for n in self.layers:
            w, b = self.view(self.flat_work, f"{n}.weight"), self.view(self.flat_work, f"{n}.bias")
            self._acts.append(np.empty((models, rows, w.shape[1])))
            forward.append((w.transpose(0, 2, 1), b[:, None, :], self._acts[-1]))
        self._trunk_ops, self._head_ops = forward[:-1], forward[-1]
        out = self._acts[-1]
        if self.kind == "cross_entropy":
            zmax, sums = np.empty((models, rows, 1)), np.empty((models, rows, 1))
            # out.ravel()[at + y] is each row's output at its label y
            at = np.arange(models * rows).reshape(models, rows) * out.shape[2]
            self._loss_ops = (
                [out[:, :, c : c + 1] for c in range(out.shape[2])],  # the class columns
                zmax, zmax[:, :, 0], sums, sums[:, :, 0], np.empty((models, rows)),
                out.reshape(-1), at, np.empty((models, rows), np.int64),
            )
        else:
            square = np.empty(out.shape)
            self._loss_ops = (square, square.reshape(models, -1))
        self._rows, self._backward_ops = rows, []

    def _bind_backward(self) -> None:
        """Allocate the gradient buffers of the bound step and bind what the backward pass reads.

        Per layer from the head down: the output gradient and its transpose,
        the working weights and bias (which the gradients overwrite), the
        layer's input (None for the step's input), its activation output
        (None for the head) and the input gradient it writes (None for the
        first layer).
        """
        acts = self._acts
        douts = [np.empty_like(a) for a in acts[1:-1]] + [acts[-1]]
        for i in reversed(range(len(self.layers))):
            d = douts[i]
            self._backward_ops.append((
                d,
                d.transpose(0, 2, 1),
                self.view(self.flat_work, f"{self.layers[i]}.weight"),
                self.view(self.flat_work, f"{self.layers[i]}.bias"),
                acts[i],
                acts[i + 1] if i < self.depth else None,
                douts[i - 1] if i else None,
            ))

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """The head outputs (S, rows, width) at ``x`` on the working weights.

        ``x`` is one (rows, input) matrix every slice reads, or one per
        slice, (S, rows, input).  ``np.matmul`` over the stack computes each
        slice exactly as the 2-D product of that model alone would.
        """
        a_in = x
        for wt, b, a in self._trunk_ops:
            np.matmul(a_in, wt, out=a)
            np.add(a, b, out=a)
            np.tanh(a, out=a)
            a_in = a
        wt, b, out = self._head_ops
        np.matmul(a_in, wt, out=out)
        np.add(out, b, out=out)
        return out

    def _loss(self, out: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-slice losses (S,) of the outputs; ``out`` becomes d_loss/d_out.

        ``target`` is one for every slice or one per slice: integer labels
        in ``[0, width)``, or a real matrix shaped like a slice of ``out``
        for MSE.  Each slice's loss is a mean over its own batch (and, for
        MSE, its outputs).
        """
        _, rows, width = out.shape
        if self.kind == "cross_entropy":
            columns, zmax, zmax0, sums, sums0, nll, flat, at, picked = self._loss_ops
            # labels are checked before a step, so each index stays in its own row
            np.add(at, target, out=picked)
            # the row maxima one class at a time, 4x faster than out.max(axis=2)
            # on few classes; a maximum is exact, so only the sign of a zero
            # maximum may differ, and no result below depends on it
            np.copyto(zmax, columns[0])
            for column in columns[1:]:
                np.maximum(zmax, column, out=zmax)
            out_y = flat[picked]
            np.subtract(out, zmax, out=out)
            np.exp(out, out=out)
            np.add.reduce(out, axis=2, keepdims=True, out=sums)
            np.log(sums0, out=nll)
            np.add(nll, zmax0, out=nll)
            np.subtract(nll, out_y, out=nll)
            losses = np.add.reduce(nll, axis=1) / rows
            np.divide(out, sums, out=out)
            flat[picked] -= 1.0
            np.divide(out, rows, out=out)
        else:
            square, square_rows = self._loss_ops
            size = rows * width
            np.subtract(out, target, out=out)
            np.multiply(out, out, out=square)
            losses = np.add.reduce(square_rows, axis=1) / size
            np.multiply(out, 2.0, out=out)
            np.divide(out, size, out=out)
        return losses

    def grads(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-slice losses at one batch; leaves the float32 gradients in ``flat_grad``.

        ``x`` is as :meth:`_forward` takes it and ``target`` as :meth:`_loss`
        does; neither is checked here.
        """
        if self._rows != x.shape[-2]:
            self._bind(x.shape[-2])
        if not self._backward_ops:
            self._bind_backward()
        np.copyto(self.flat_work, self.flat)
        losses = self._loss(self._forward(x), target)
        # each gradient overwrites its tensor's working copy, which the
        # backward pass has read for the last time by then; likewise each
        # activation buffer a = tanh(z) becomes tanh'(z) = 1 - a² once the
        # layer reading it is done
        for d, dt, w, b, a_in, a, d_in in self._backward_ops:
            if a is not None:
                np.multiply(a, a, out=a)
                np.subtract(1.0, a, out=a)
                np.multiply(d, a, out=d)
            if d_in is not None:
                np.matmul(d, w, out=d_in)
            np.matmul(dt, x if a_in is None else a_in, out=w)
            np.add.reduce(d, axis=1, out=b)
        np.copyto(self.flat_grad, self.flat_work)
        return losses

    def outputs(self, x: np.ndarray) -> np.ndarray:
        """Every slice's head outputs (S, rows, width) at ``x``: the forward pass alone.

        Binds no gradient buffer.  The result is a step buffer, overwritten
        by the stack's next call.
        """
        if self._rows != x.shape[-2]:
            self._bind(x.shape[-2])
        np.copyto(self.flat_work, self.flat)
        return self._forward(x)

    def train(self, data, cfg: "TrainConfig", updates: int, rngs: list, step_offset: int = 0):
        """Run ``updates`` SGD steps; slot j draws its minibatches from ``rngs[j]``.

        Slots given the same generator train on the same minibatches.  Each
        generator makes the draws of :func:`sgd_train`, so it is consumed as
        by one model trained alone; denoising reads one generator.  Returns
        each step's losses, one per slot of all S; a diverged slot's entries
        are non-finite.  Stops early once every slot has diverged; on labeled
        data the generators have drawn the row indices of all ``updates``
        steps by then.  The labels are checked once, here, not at each step.
        """
        if len(rngs) != len(self.flat):
            raise ValueError(f"{len(rngs)} generators for a stack of {len(self.flat)}")
        if self.kind == "cross_entropy":
            _check_labels(data.y, self.width)
        gens = list({id(g): g for g in rngs}.values())
        if len(gens) > 1 and isinstance(data, UnlabeledBatch):
            raise ValueError(f"denoising draws from one random stream, got {len(gens)}")
        # with one generator every slot reads the same (batch, ...) arrays
        pick = np.array([gens.index(g) for g in rngs]) if len(gens) > 1 else 0
        losses = []
        # diverging slices may overflow to inf; the finiteness check below
        # is the mechanism that turns that into a divergence
        with np.errstate(over="ignore", invalid="ignore"):
            batches = _minibatches(data, cfg, updates, gens, pick)
            for step, (x_in, target) in enumerate(batches):
                step_losses = self.grads(x_in, target)
                losses.append(step_losses)
                finite = np.isfinite(step_losses)
                if not finite.all():
                    for slot in np.flatnonzero(~finite):
                        self.diverged.setdefault(int(slot), step_offset + step)
                    if len(self.diverged) == len(self.flat):
                        break
                _sgd_update(self.flat, self.flat_grad, cfg.lr, self.flat_work)
        return losses

    def model(self, slot: int, template: ParameterSet, role: str) -> ParameterSet:
        """A copy of slice ``slot`` with ``template``'s names, prunable flags and metadata."""
        tensors = [
            Tensor(t.name, self.master[t.name][slot].copy(), t.prunable) for t in template.tensors
        ]
        return ParameterSet(tensors, role, dict(template.meta))

    def set(self, slot: int, ps: ParameterSet) -> None:
        """Overwrite slice ``slot`` with the values of ``ps``."""
        for t in ps.tensors:
            self.master[t.name][slot] = t.data


def check_data(ps: ParameterSet, data) -> str:
    """Refuse data ``ps`` cannot train on or be scored with: wrong type, no rows, a tensor
    its loss's forward pass reads missing, wrong width, or labels outside that head's classes.

    Returns the loss kind the data trains with, which its type decides.
    """
    if not isinstance(data, (LabeledBatch, UnlabeledBatch)):
        raise ValueError(f"expected a LabeledBatch or an UnlabeledBatch, not {type(data).__name__}")
    if data.n < 1:
        raise ValueError("data is empty")
    kind = "cross_entropy" if isinstance(data, LabeledBatch) else "mse_reconstruction"
    _trunk_depth(ps, _LOSS_HEAD[kind])
    input_dim = ps["layers.0.weight"].shape[1]
    if data.x.shape[1] != input_dim:
        raise ValueError(f"input has {data.x.shape[1]} features, model expects {input_dim}")
    if kind == "cross_entropy":
        _check_labels(data.y, ps["cls.weight"].shape[0])
    return kind


def _one_model(ps: ParameterSet, data):
    """The S = 1 stack of ``ps`` for the loss of ``data``, once checked, and that loss's target."""
    kind = check_data(ps, data)
    return ModelStack.of([ps], kind), data.y if kind == "cross_entropy" else data.x


def sgd_train(ps: ParameterSet, data, cfg: TrainConfig, updates: int, rng: np.random.Generator):
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
    stack, _ = _one_model(ps, data)
    losses = stack.train(data, cfg, updates, [rng])
    if stack.diverged:
        raise TrainingDivergedError(stack.diverged[0])
    return stack.model(0, ps, ps.role), [float(step[0]) for step in losses]


def loss_and_grads(ps: ParameterSet, data):
    """The loss of ``ps`` on the whole of ``data`` and its gradients, as a name->float32 dict.

    The backward pass of one S = 1 :class:`ModelStack` step.  Tensors off
    the loss's path get zero gradients.  A non-finite loss is returned as
    it is, as :meth:`ModelStack.grads` returns it.
    """
    stack, target = _one_model(ps, data)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(stack.grads(data.x, target)[0])
    return loss, {
        t.name: stack.view(stack.flat_grad, t.name)[0]
        if t.name in stack.layout
        else np.zeros(t.shape, np.float32)
        for t in ps
    }


def sgd_step(ps: ParameterSet, grads: dict, lr: float) -> ParameterSet:
    """w' = w - lr * g for EVERY tensor of ``ps``, zeroed or not (nothing is frozen).

    The update of one S = 1 :class:`ModelStack` step, with ``grads`` keyed
    as :func:`loss_and_grads` returns them.  Returns a new parameter set;
    the inputs are left unmodified.
    """
    if set(grads) != set(ps.names()):
        raise StructureMismatchError(f"gradient keys {sorted(grads)} != {sorted(ps.names())}")
    out = ps.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in out:
            _sgd_update(t.data, grads[t.name], lr, np.empty(t.shape))
    return out


def dataset_loss(ps: ParameterSet, data) -> float:
    """Forward-only loss over a whole dataset, the loss :func:`sgd_train` trains it with."""
    stack, target = _one_model(ps, data)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(stack._loss(stack.outputs(data.x), target)[0])


def _stage(start, data, cfg: TrainConfig, role: str) -> ParameterSet:
    """``cfg.updates`` steps on ``default_rng(cfg.seed)``, as ``role``, recording seed and N."""
    rng = np.random.default_rng(cfg.seed)
    if isinstance(start, ModelArch):  # initialized from the same stream
        start = init_model(start, rng)
    model, _ = sgd_train(start, data, cfg, cfg.updates, rng)
    meta = {**model.meta, "seed": str(cfg.seed), "updates": str(cfg.updates)}
    return ParameterSet(model.tensors, role, meta)


def pretrain_denoising(arch: ModelArch, data: UnlabeledBatch, cfg: TrainConfig) -> ParameterSet:
    """Train input reconstruction from noise-corrupted input; the p(theta) analogue.

    With ``cfg.updates == 0`` this returns the seeded initialization unchanged.
    """
    if not isinstance(data, UnlabeledBatch):
        raise ValueError("denoising pre-training requires an UnlabeledBatch")
    return _stage(arch, data, cfg, "pretrained")


def finetune_supervised(
    ps: ParameterSet, data: LabeledBatch, cfg: TrainConfig, role: str = "finetuned_target"
) -> ParameterSet:
    """Jointly train all weights with cross-entropy on the classification head.

    The input set is never modified.  The classification head exists from
    initialization and is reused as-is.
    """
    if not isinstance(data, LabeledBatch):
        raise ValueError("supervised fine-tuning requires a LabeledBatch")
    return _stage(ps, data, cfg, role)


def evaluate(ps: ParameterSet, data: LabeledBatch) -> float:
    """Misclassification fraction in [0, 1] on the classification head."""
    if not isinstance(data, LabeledBatch):
        raise ValueError("evaluation requires a LabeledBatch")
    stack, y = _one_model(ps, data)
    return float(np.mean(stack.outputs(data.x)[0].argmax(axis=1) != y))
