import json
from pathlib import Path

import numpy as np
import pytest

from pada.metrics import (
    iou,
    iou_counts,
    layerwise_report,
    mma,
    mma_counts,
    report_to_csv,
    report_to_json,
)
from pada.params import StructureMismatchError
from pada.pruning import Mask, MaskEntry


def bitmask(*bit_lists, names=None):
    names = names or [f"m{i}" for i in range(len(bit_lists))]
    return Mask([MaskEntry(n, np.array(b, dtype=bool)) for n, b in zip(names, bit_lists)])


def random_mask_pair(rng, n_tensors=3, max_bits=40):
    shapes = [int(rng.integers(1, max_bits)) for _ in range(n_tensors)]
    a = bitmask(*[rng.integers(2, size=s).astype(bool) for s in shapes])
    b = bitmask(*[rng.integers(2, size=s).astype(bool) for s in shapes])
    return a, b


def naive_counts(ma, mb):
    inter1 = inter0 = union = total = 0
    for ea, eb in zip(ma.entries, mb.entries):
        for a, b in zip(ea.bits.ravel().tolist(), eb.bits.ravel().tolist()):
            total += 1
            inter1 += a and b
            inter0 += (not a) and (not b)
            union += a or b
    return inter1, inter0, union, total


def test_worked_example():
    ma = bitmask([1, 0, 1, 0])
    mb = bitmask([1, 1, 0, 0])
    assert abs(iou(ma, mb) - 1.0 / 3.0) < 1e-12
    assert mma(ma, mb) == 0.5
    assert iou_counts(ma, mb) == (1, 3)
    assert mma_counts(ma, mb) == (2, 4)


def test_identity_and_extremes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ma, _ = random_mask_pair(rng)
        assert iou(ma, ma) == 1.0
        assert mma(ma, ma) == 1.0
    assert iou(bitmask([1, 0]), bitmask([0, 1])) == 0.0
    ma = bitmask([1, 0, 1])
    complement = bitmask([0, 1, 0])
    assert mma(ma, complement) == 0.0


def test_symmetry_and_bounds():
    rng = np.random.default_rng(1)
    for _ in range(100):
        ma, mb = random_mask_pair(rng)
        assert iou(ma, mb) == iou(mb, ma)
        assert mma(ma, mb) == mma(mb, ma)
        assert 0.0 <= iou(ma, mb) <= 1.0
        assert 0.0 <= mma(ma, mb) <= 1.0


def test_brute_force_equivalence():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        ma, mb = random_mask_pair(rng, n_tensors=int(rng.integers(1, 4)))
        i1, i0, union, total = naive_counts(ma, mb)
        assert iou_counts(ma, mb) == (i1, union)
        assert mma_counts(ma, mb) == (i1 + i0, total)


def test_empty_union_convention():
    ma = bitmask([0, 0, 0])
    mb = bitmask([0, 0, 0])
    assert iou(ma, mb) == 1.0
    report = layerwise_report(ma, mb)
    assert report.empty_union
    assert report.layers[0].empty_union


def test_misaligned_masks():
    ma = bitmask([1, 0, 1])
    mb = bitmask([1, 0])
    with pytest.raises(StructureMismatchError):
        iou(ma, mb)
    mc = Mask([MaskEntry("other", np.array([True, False, True]))])
    with pytest.raises(StructureMismatchError):
        mma(ma, mc)


def test_mma_empty_masks_error():
    with pytest.raises(ValueError):
        mma(Mask([]), Mask([]))


def test_single_tensor_report_matches_global():
    rng = np.random.default_rng(3)
    ma, mb = random_mask_pair(rng, n_tensors=1)
    report = layerwise_report(ma, mb)
    assert len(report.layers) == 1
    assert report.layers[0].iou == report.global_iou
    assert report.layers[0].mma == report.global_mma


def test_report_on_worked_example():
    report = layerwise_report(bitmask([1, 0, 1, 0]), bitmask([1, 1, 0, 0]))
    assert abs(report.global_iou - 0.33) < 0.01
    assert report.global_mma == 0.5


def test_independence_model_expectation():
    rng = np.random.default_rng(4)
    total = 100_000
    for rate in (0.2, 0.4, 0.6):
        z = int(rate * total)

        def perm_mask():
            bits = np.ones(total, dtype=bool)
            bits[rng.choice(total, size=z, replace=False)] = False
            return bitmask(bits)

        expected = rate * rate + (1 - rate) * (1 - rate)
        assert abs(mma(perm_mask(), perm_mask()) - expected) <= 0.01


def test_report_export(tmp_path):
    ma = bitmask([1, 0, 1, 0], [1, 1], names=["layers.0.weight", "layers.1.weight"])
    mb = bitmask([1, 1, 0, 0], [1, 0], names=["layers.0.weight", "layers.1.weight"])
    report = layerwise_report(ma, mb)
    csv_path = str(tmp_path / "r.csv")
    json_path = str(tmp_path / "r.json")
    report_to_csv(report, csv_path)
    report_to_json(report, json_path)

    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "layer,iou,mma"
    assert lines[1].startswith("_global_,")
    assert len(lines) == 1 + 1 + 2

    doc = json.loads(Path(json_path).read_text())
    assert doc["global"]["iou"] == report.global_iou
    assert [l["name"] for l in doc["layers"]] == ["layers.0.weight", "layers.1.weight"]
    # exact scores recomputable from the parsed layers
    row = doc["layers"][0]
    assert abs(row["iou"] - 1.0 / 3.0) < 1e-12
    assert row["mma"] == 0.5
