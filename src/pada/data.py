"""Synthetic domain-shift tasks.

The source domain is a Gaussian class-blob problem; the target domain draws
from the same label structure and pushes features through a fixed linear
transform (planar rotations plus per-run feature scaling) with extra additive
noise.  The source side provides a large unlabeled corpus (for pre-training)
and a large labeled corpus (for the donor); the target side provides a small
labeled set, deliberately tiny relative to the source labeled set, plus an
evaluation set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trainer import LabeledBatch, UnlabeledBatch


@dataclass(frozen=True)
class DomainShiftSpec:
    """Task shape, shift parameters, and split sizes.

    ``target_labeled=None`` defaults to ``source_labeled // 50``, keeping the
    target labeled set two orders of magnitude scarcer than the source one.
    """

    num_classes: int = 6
    input_dim: int = 16
    rotation_deg: float = 35.0
    feature_scale: float = 1.15
    noise_std: float = 0.35
    class_std: float = 1.0
    mean_scale: float = 1.0
    source_unlabeled: int = 4000
    source_labeled: int = 4000
    target_labeled: int | None = None
    target_eval: int = 2000

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("degenerate task spec: need at least 1 class")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        for name in ("source_unlabeled", "source_labeled", "target_eval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.target_labeled is not None and self.target_labeled < 1:
            raise ValueError("target_labeled must be positive")
        if self.noise_std < 0 or self.class_std < 0:
            raise ValueError("noise levels must be >= 0")

    @property
    def target_labeled_size(self) -> int:
        if self.target_labeled is not None:
            return self.target_labeled
        return max(1, self.source_labeled // 50)


@dataclass
class DomainShiftTask:
    """The four generated splits (P, J, L analogues plus a target eval set)."""

    spec: DomainShiftSpec
    source_unlabeled: UnlabeledBatch
    source_labeled: LabeledBatch
    target_labeled: LabeledBatch
    target_eval: LabeledBatch


def rotation_matrix(dim: int, angle_deg: float) -> np.ndarray:
    """Block-diagonal planar rotations on consecutive coordinate pairs."""
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.eye(dim)
    for i in range(0, dim - 1, 2):
        rot[i, i] = c
        rot[i, i + 1] = -s
        rot[i + 1, i] = s
        rot[i + 1, i + 1] = c
    return rot


def apply_shift(spec: DomainShiftSpec, x: np.ndarray, rng=None) -> np.ndarray:
    """Map source-style features into the target domain.

    The deterministic part is rotate-then-scale; additive noise is only drawn
    when an rng is supplied.  With a zero-angle, unit-scale, zero-noise spec
    this is exactly the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.rotation_deg != 0.0:
        x = x @ rotation_matrix(spec.input_dim, spec.rotation_deg).T
    if spec.feature_scale != 1.0:
        x = x * spec.feature_scale
    if rng is not None and spec.noise_std > 0.0:
        x = x + rng.normal(0.0, spec.noise_std, size=x.shape)
    return x


def gen_domain_shift(seed: int, spec: DomainShiftSpec = DomainShiftSpec()) -> DomainShiftTask:
    """Generate all four splits reproducibly from one seed."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spec.mean_scale, size=(spec.num_classes, spec.input_dim))

    def draw(n):
        y = rng.integers(0, spec.num_classes, size=n)
        x = means[y] + rng.normal(0.0, spec.class_std, size=(n, spec.input_dim))
        return x, y

    xp, _ = draw(spec.source_unlabeled)
    xj, yj = draw(spec.source_labeled)
    xl, yl = draw(spec.target_labeled_size)
    xe, ye = draw(spec.target_eval)
    return DomainShiftTask(
        spec=spec,
        source_unlabeled=UnlabeledBatch(xp),
        source_labeled=LabeledBatch(xj, yj),
        target_labeled=LabeledBatch(apply_shift(spec, xl, rng), yl),
        target_eval=LabeledBatch(apply_shift(spec, xe, rng), ye),
    )

