"""Unstructured magnitude pruning.

Masks select an exact count of least-magnitude weights under a single global
ranking across all prunable tensors, ties broken by flat position.  The
ranking is a linear-time selection, not a sort: it finds the threshold
magnitude and prunes what lies below it plus the earliest ties at it, which
picks exactly the weights a stable sort by magnitude would put first.
Zeroing writes 0.0 at the selected positions and deliberately keeps no
record of the mask: the weights stay trainable and may regrow under later
gradient updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import (
    MASK_MAGIC,
    FormatError,
    ParameterSet,
    StructureMismatchError,
    Tensor,
    flat_prunable_values,
    read_container,
    structural_mismatch,
    write_container,
)

# pada.strategies's kinds and the model each one's initial mask ranks (the pre-trained
# model, the seed's direct fine-tuned (DFT) model or the donor), here so masks can name them
RANKED_MODEL = {"TAG": "pretrained", "TAW": "dft", "CD-TAW": "donor"}
STRATEGY_KINDS = tuple(RANKED_MODEL)
MASK_SOURCES = (*STRATEGY_KINDS, "in-loop")  # a mask's strategy, or in-loop pruning


@dataclass(eq=False)
class MaskEntry:
    """Retain/zero bits for one prunable tensor (True = retained)."""

    name: str
    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=bool)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.bits.shape

    @property
    def size(self) -> int:
        return self.bits.size


@dataclass(eq=False)
class Mask:
    """Per-tensor bitsets aligned to a ParameterSet's prunable tensors.

    ``source`` and ``rate`` record provenance only; equality compares
    structure and bits, so masks produced by different strategies can be
    tested for identical content.
    """

    entries: list[MaskEntry] = field(default_factory=list)
    source: str = "in-loop"
    rate: float = 0.0

    def __post_init__(self):
        if self.source not in MASK_SOURCES:
            raise ValueError(f"unknown mask source {self.source!r}")
        if not 0.0 <= self.rate <= 100.0:  # NaN fails this too
            raise ValueError(f"mask rate must lie in [0, 100], got {self.rate!r}")

    @property
    def total_bits(self) -> int:
        return sum(e.size for e in self.entries)

    @property
    def zero_bits(self) -> int:
        return int(sum(np.count_nonzero(~e.bits) for e in self.entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        return structural_mismatch(self.entries, other.entries) is None and all(
            np.array_equal(a.bits, b.bits) for a, b in zip(self.entries, other.entries)
        )


_MAGNITUDE_BITS = 0x7FFFFFFF  # all bits of a float32 but its sign
_INF_KEY, _NAN_KEY = 0x7F800000, 0x7F800001  # the bits of +inf and of the smallest NaN


def prune_count(rate: float, d_prunable: int) -> int:
    """Number of weights zeroed at ``rate`` percent: floor(rate/100 * d)."""
    return int(math.floor(rate / 100.0 * d_prunable))


def _require_prunable(ps: ParameterSet) -> list[Tensor]:
    prunable = ps.prunable_tensors()
    if not prunable:
        raise ValueError("parameter set has no prunable tensors")
    return prunable


def compute_ump_mask(ps: ParameterSet, rate: float, source: str = "in-loop") -> Mask:
    """Mask the ``floor(rate/100 * d_prunable)`` smallest-|value| weights.

    Ranking is global over all prunable tensors.  Ties at the threshold are
    broken by flat position (earlier elements pruned first), which makes the
    mask deterministic; exact zeros therefore rank first among equal
    magnitudes in position order, -0.0 tying with 0.0, and NaN ranks after
    +inf.  The selection takes linear time: ``np.partition`` finds the
    z-th smallest magnitude, every weight below it is pruned, and then the
    earliest weights equal to it, which is the first z of a stable sort.
    Ties are only looked up when some of them are kept.

    Magnitudes are ranked as integers: a float32 with its sign bit cleared
    orders exactly as its bits do as a uint32.  NaN keys lie above +inf's but
    order by payload, so when the threshold is a NaN every NaN key is clamped
    to the smallest one and all NaNs tie.
    """
    if not 0.0 <= rate <= 100.0:
        raise ValueError(f"prune rate must be in [0, 100], got {rate}")
    prunable = _require_prunable(ps)
    keys = flat_prunable_values(ps).view(np.uint32)  # a fresh array, so it is ranked in place
    z = prune_count(rate, keys.size)
    if z == 0:
        keep = np.ones(keys.size, dtype=bool)
    else:
        np.bitwise_and(keys, _MAGNITUDE_BITS, out=keys)  # |value|, bit for bit
        kth = np.partition(keys, z - 1)[z - 1]
        if kth > _INF_KEY:  # NaN keys order by payload; clamped, every NaN ties after +inf
            np.minimum(keys, _NAN_KEY, out=keys)
            kth = _NAN_KEY
        keep = keys > kth
        kept_ties = keys.size - np.count_nonzero(keep) - z  # the last ties at kth are kept
        if kept_ties:
            keep[np.flatnonzero(keys == kth)[-kept_ties:]] = True
    entries = []
    offset = 0
    for t in prunable:
        entries.append(MaskEntry(t.name, keep[offset : offset + t.size].reshape(t.shape)))
        offset += t.size
    return Mask(entries, source=source, rate=float(rate))


def apply_zeroing(ps: ParameterSet, mask: Mask) -> ParameterSet:
    """Return a copy of ``ps`` with 0.0 where the mask bit is 0.

    The result carries no mask: nothing distinguishes a zeroed weight from a
    weight that happened to be zero, and subsequent gradient updates may make
    zeroed weights nonzero again.
    """
    problem = structural_mismatch(mask.entries, ps.prunable_tensors())
    if problem is not None:
        raise StructureMismatchError(f"mask does not align with parameter set: {problem}")
    by_name = {e.name: e for e in mask.entries}
    tensors = []
    for t in ps.tensors:
        if t.prunable:
            data = np.where(by_name[t.name].bits, t.data, np.float32(0.0))
            tensors.append(Tensor(t.name, data, t.prunable))
        else:
            tensors.append(t.copy())
    return ParameterSet(tensors, ps.role, dict(ps.meta))


def sparsity(ps: ParameterSet) -> float:
    """Fraction of exactly-zero values among prunable elements (-0.0 counts, NaN does not)."""
    prunable = _require_prunable(ps)
    # counting nonzero float32 takes ~3x as long as counting the bools of a comparison
    zeros = sum(np.count_nonzero(t.data == 0.0) for t in prunable)
    return float(zeros / ps.d_prunable)


def save_mask(mask: Mask, path: str) -> None:
    """Write a .padm file: the checkpoint container with packed-bit payloads."""
    records = [
        (e.name, True, e.shape, np.packbits(e.bits.ravel(), bitorder="little").tobytes())
        for e in mask.entries
    ]
    metadata = {"source": mask.source, "rate": repr(mask.rate)}
    write_container(path, MASK_MAGIC, records, metadata)


def load_mask(path: str) -> Mask:
    """Read a .padm file; exact inverse of :func:`save_mask`."""
    records, metadata = read_container(
        path, MASK_MAGIC, "PADA mask", lambda n: (n + 7) // 8, ("source", "rate")
    )
    entries = []
    for name, _prunable, shape, payload in records:
        tail = math.prod(shape) % 8  # the elements in the last byte, 0 when it is full
        if tail and payload[-1] >> tail:  # saving the mask again would clear the set bits
            raise FormatError(f"{path}: tensor {name!r}: nonzero padding bits")
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8), count=math.prod(shape), bitorder="little"
        ).view(bool)  # unpackbits writes only 0 and 1
        entries.append(MaskEntry(name, bits.reshape(shape)))
    try:
        return Mask(entries, source=metadata["source"], rate=float(metadata["rate"]))
    except ValueError as exc:  # well-formed container, invalid content
        raise FormatError(f"{path}: {exc}") from exc
