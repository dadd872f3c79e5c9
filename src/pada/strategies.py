"""Initial-mask strategies: TAG, TAW and CD-TAW.

The three strategies differ only in where the magnitudes that rank the
weights come from; the resulting mask is always applied to the pre-trained
model's values.

* TAG ranks the pre-trained model's own weights.
* TAW ranks the weights of the pre-trained model after fine-tuning on the
  target labeled data.  That model is the direct fine-tuning (DFT) baseline,
  so ``pada run`` trains it once per seed and passes it in.
* CD-TAW ranks the weights of a separately fine-tuned donor model, making use
  of readily available fine-tuned checkpoints, and never reads the
  pre-trained values at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ParameterSet, StructureMismatchError, shapes_compatible, structural_mismatch
from .pruning import Mask, apply_zeroing, compute_ump_mask

STRATEGY_KINDS = ("TAG", "TAW", "CD-TAW")


@dataclass
class StrategySpec:
    """Which strategy produces the initial mask, and at what rate.

    TAW needs the target fine-tuned model and CD-TAW a donor parameter set;
    both are passed to :func:`initial_model` alongside the spec.
    """

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        self.rate = float(self.rate)
        if not 0.0 <= self.rate <= 100.0:
            raise ValueError(f"prune rate must be in [0, 100], got {self.rate}")


def tag_mask(pretrained: ParameterSet, r1: float) -> Mask:
    """Task-agnostic mask: rank the pre-trained weights directly."""
    return compute_ump_mask(pretrained, r1, source="TAG")


def _rank_other(pretrained, other, r1: float, source: str, what: str) -> Mask:
    # the mask positions must mean the same weights in both models
    if not shapes_compatible(pretrained, other):
        raise StructureMismatchError(
            f"{what} incompatible with pretrained model: {structural_mismatch(pretrained, other)}"
        )
    return compute_ump_mask(other, r1, source=source)


def taw_mask(pretrained: ParameterSet, finetuned: ParameterSet, r1: float) -> Mask:
    """Task-aware mask: rank the weights of the target fine-tuned model.

    ``finetuned`` is the pre-trained model fine-tuned on the target labeled
    data (the DFT model); only its magnitudes are read, and the mask is
    applied to the pre-trained values downstream.
    """
    return _rank_other(pretrained, finetuned, r1, "TAW", "fine-tuned model")


def cdtaw_mask(pretrained: ParameterSet, donor: ParameterSet, r1: float) -> Mask:
    """Cross-domain task-aware mask: rank the donor's weights.

    The donor must be structurally identical to the pre-trained model so the
    mask positions mean the same weights.  Only donor magnitudes are read;
    the mask is applied to the pre-trained values downstream.
    """
    return _rank_other(pretrained, donor, r1, "CD-TAW", "donor")


def initial_model(
    pretrained: ParameterSet,
    spec: StrategySpec,
    finetuned: ParameterSet | None = None,
    donor: ParameterSet | None = None,
) -> tuple[ParameterSet, Mask]:
    """Dispatch to the chosen strategy and zero the pre-trained model.

    Returns the zeroed model (all weights still trainable) together with the
    mask so callers can analyze mask similarity later.
    """
    if spec.kind == "TAG":
        mask = tag_mask(pretrained, spec.rate)
    elif spec.kind == "TAW":
        if finetuned is None:
            raise ValueError("TAW requires the target fine-tuned model")
        mask = taw_mask(pretrained, finetuned, spec.rate)
    else:
        if donor is None:
            raise ValueError("CD-TAW requires a donor parameter set")
        mask = cdtaw_mask(pretrained, donor, spec.rate)
    return apply_zeroing(pretrained, mask), mask
