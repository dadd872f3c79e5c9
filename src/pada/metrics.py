"""Mask similarity: intersection-over-union and mutual mask agreement.

IOU compares only the retained (bit = 1) regions of two masks; MMA counts
agreement in both the retained and the zeroed regions, so a pair of masks
that agree on half of all positions scores 0.5 even when the retained sets
barely overlap.  Counts accumulate as integers and the exact numerators and
denominators are exposed for tests; division happens once at the end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .params import StructureMismatchError, structural_mismatch, write_csv, write_json
from .pruning import Mask


def _layer_counts(ma: Mask, mb: Mask) -> list[tuple[int, int, int, int]]:
    """(both retained, either retained, agreeing, size) per entry of two aligned masks.

    Agreeing positions are both retained or both zeroed, ``size - either + both``,
    so one pass over the bits feeds IOU and MMA alike.
    """
    problem = structural_mismatch(ma.entries, mb.entries)
    if problem is not None:
        raise StructureMismatchError(f"masks do not align: {problem}")
    counts = []
    for a, b in zip(ma.entries, mb.entries):
        both = int(np.count_nonzero(a.bits & b.bits))
        either = int(np.count_nonzero(a.bits | b.bits))
        counts.append((both, either, a.bits.size - either + both, a.bits.size))
    return counts


def _iou_of(counts) -> tuple[int, int]:
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def _mma_of(counts) -> tuple[int, int]:
    return sum(c[2] for c in counts), sum(c[3] for c in counts)


def iou_counts(ma: Mask, mb: Mask) -> tuple[int, int]:
    """Exact (|a=1 and b=1|, |a=1 or b=1|) over all bits."""
    return _iou_of(_layer_counts(ma, mb))


def _ratio_iou(inter: int, union: int) -> float:
    # both masks retain nothing: they are identical, and identical masks score 1.0
    return 1.0 if union == 0 else inter / union


def iou(ma: Mask, mb: Mask) -> float:
    """Intersection-over-union of the retained regions.

    When both masks retain nothing the union is empty; the two masks are then
    identical and the identical-masks convention returns 1.0.
    """
    return _ratio_iou(*iou_counts(ma, mb))


def mma_counts(ma: Mask, mb: Mask) -> tuple[int, int]:
    """Exact (positions agreeing in either state, total positions)."""
    return _mma_of(_layer_counts(ma, mb))


def mma(ma: Mask, mb: Mask) -> float:
    """Mutual mask agreement: (retained-retained + zeroed-zeroed) / total bits."""
    agree, total = mma_counts(ma, mb)
    if total == 0:
        raise ValueError("cannot compute MMA of empty masks")
    return agree / total


@dataclass
class LayerScore:
    name: str
    iou: float
    mma: float
    empty_union: bool


@dataclass
class SimilarityReport:
    """Global and per-tensor IOU/MMA plus the provenance of both masks."""

    global_iou: float
    global_mma: float
    layers: list[LayerScore]
    source_a: str
    source_b: str
    rate_a: float
    rate_b: float
    empty_union: bool


def layerwise_report(ma: Mask, mb: Mask) -> SimilarityReport:
    """Compute IOU and MMA per prunable tensor and globally."""
    counts = _layer_counts(ma, mb)
    if ma.total_bits == 0:
        raise ValueError("cannot compare empty masks")
    layers = [
        LayerScore(e.name, _ratio_iou(both, either), agree / size, either == 0)
        for e, (both, either, agree, size) in zip(ma.entries, counts)
    ]
    inter, union = _iou_of(counts)
    agree, total = _mma_of(counts)
    return SimilarityReport(
        global_iou=_ratio_iou(inter, union),
        global_mma=agree / total,
        layers=layers,
        source_a=ma.source,
        source_b=mb.source,
        rate_a=ma.rate,
        rate_b=mb.rate,
        empty_union=union == 0,
    )


def report_to_csv(report: SimilarityReport, path: str) -> None:
    """Rows of (layer, iou, mma); the first row is the global score."""
    rows = [("_global_", report.global_iou, report.global_mma)]
    rows += [(layer.name, layer.iou, layer.mma) for layer in report.layers]
    write_csv(path, ["layer", "iou", "mma"], rows)


def report_to_json(report: SimilarityReport, path: str) -> None:
    write_json(path, {
        "global": {
            "iou": report.global_iou,
            "mma": report.global_mma,
            "empty_union": report.empty_union,
        },
        "mask_a": {"source": report.source_a, "rate": report.rate_a},
        "mask_b": {"source": report.source_b, "rate": report.rate_b},
        "layers": [asdict(layer) for layer in report.layers],
    })
