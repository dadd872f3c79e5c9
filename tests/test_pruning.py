import math

import numpy as np
import pytest

from pada.params import (
    NotACheckpointError,
    ParameterSet,
    StructureMismatchError,
    Tensor,
    flat_prunable_view,
    load_checkpoint,
)
from pada.pruning import (
    Mask,
    MaskEntry,
    apply_zeroing,
    compute_ump_mask,
    load_mask,
    prune_count,
    save_mask,
    sparsity,
)
from pada.trainer import sgd_step


def vec_set(values, prunable=True):
    return ParameterSet([Tensor("w", np.array(values, dtype=np.float32), prunable=prunable)])


def mask_bits(mask):
    return np.concatenate([e.bits.ravel() for e in mask.entries])


def oracle_keep(values, rate):
    """Independent full-sort oracle: stable sort by (|value|, flat index)."""
    d = len(values)
    z = math.floor(rate / 100.0 * d)
    order = sorted(range(d), key=lambda i: (abs(values[i]), i))
    keep = [True] * d
    for i in order[:z]:
        keep[i] = False
    return keep, z


def test_fixture_rate_50():
    ps = vec_set([0.5, -0.1, 0.3, -0.7])
    mask = compute_ump_mask(ps, 50.0)
    assert mask_bits(mask).tolist() == [True, False, False, True]
    assert mask.rate == 50.0


def test_rate_zero_all_ones():
    ps = vec_set([0.5, -0.1, 0.3, -0.7])
    mask = compute_ump_mask(ps, 0.0)
    assert mask_bits(mask).all()
    assert mask.zero_bits == 0


def test_tie_break_prunes_earliest_index():
    ps = vec_set([0.2, 0.2, 0.2])
    mask = compute_ump_mask(ps, 33.4)
    assert mask.zero_bits == math.floor(0.334 * 3) == 1
    assert mask_bits(mask).tolist() == [False, True, True]


def test_rate_out_of_range():
    ps = vec_set([1.0, 2.0])
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        compute_ump_mask(ps, -1.0)
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        compute_ump_mask(ps, 100.5)


def test_no_prunable_tensors_error():
    ps = vec_set([1.0, 2.0], prunable=False)
    with pytest.raises(ValueError, match="no prunable"):
        compute_ump_mask(ps, 10.0)
    with pytest.raises(ValueError, match="no prunable"):
        sparsity(ps)


def random_multi_tensor_set(rng, max_total=400):
    tensors = []
    remaining = int(rng.integers(1, max_total))
    for k in range(int(rng.integers(1, 4))):
        n = int(rng.integers(1, remaining + 1))
        vals = rng.normal(size=n)
        if rng.random() < 0.4:  # force ties and exact zeros into the pool
            vals = np.round(vals, 1)
        tensors.append(Tensor(f"t{k}", vals.astype(np.float32).reshape(n), prunable=True))
        remaining = max(1, remaining - n)
    return ParameterSet(tensors)


def test_oracle_equivalence_and_exact_count():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ps = random_multi_tensor_set(rng)
        rate = float(rng.uniform(0, 100))
        mask = compute_ump_mask(ps, rate)
        values = [v for _, _, v in flat_prunable_view(ps)]
        keep, z = oracle_keep(values, rate)
        assert mask_bits(mask).tolist() == keep
        assert mask.zero_bits == z == prune_count(rate, len(values))


def test_selection_idempotent_on_zeroed_set():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ps = random_multi_tensor_set(rng)
        rate = float(rng.uniform(0, 100))
        zeroed = apply_zeroing(ps, compute_ump_mask(ps, rate))
        again = compute_ump_mask(zeroed, rate)
        currently_zero = np.concatenate(
            [t.data.ravel() == 0.0 for t in zeroed.tensors if t.prunable]
        )
        selected = ~mask_bits(again)
        # zeros have minimal magnitude and earliest-index ties, so the new
        # selection covers every currently-zero position
        assert np.all(selected[currently_zero])


def test_apply_zeroing_fixture():
    ps = vec_set([0.5, -0.1, 0.3, -0.7])
    mask = Mask([MaskEntry("w", np.array([True, False, False, True]))])
    out = apply_zeroing(ps, mask)
    expected = np.array([0.5, 0.0, 0.0, -0.7], dtype=np.float32)
    assert np.array_equal(out["w"].data, expected)
    # input not modified
    assert np.array_equal(ps["w"].data, np.array([0.5, -0.1, 0.3, -0.7], dtype=np.float32))


def test_apply_zeroing_all_ones_identity():
    rng = np.random.default_rng(1)
    ps = random_multi_tensor_set(rng)
    out = apply_zeroing(ps, compute_ump_mask(ps, 0.0))
    assert out == ps


def test_apply_zeroing_all_zeros_mask():
    ps = ParameterSet(
        [
            Tensor("w", np.array([1.0, 2.0], dtype=np.float32), prunable=True),
            Tensor("b", np.array([3.0, 4.0], dtype=np.float32), prunable=False),
        ]
    )
    mask = compute_ump_mask(ps, 100.0)
    out = apply_zeroing(ps, mask)
    assert out["w"].data.tolist() == [0.0, 0.0]
    assert out["b"].data.tolist() == [3.0, 4.0]  # non-prunable untouched


def test_apply_zeroing_misaligned():
    ps = vec_set([1.0, 2.0, 3.0])
    wrong_shape = Mask([MaskEntry("w", np.ones(4, dtype=bool))])
    with pytest.raises(StructureMismatchError, match="shape"):
        apply_zeroing(ps, wrong_shape)
    wrong_name = Mask([MaskEntry("v", np.ones(3, dtype=bool))])
    with pytest.raises(StructureMismatchError, match="name"):
        apply_zeroing(ps, wrong_name)


def test_sparsity_after_zeroing_rate_40():
    rng = np.random.default_rng(2)
    ps = ParameterSet([Tensor("w", rng.normal(size=(40, 25)).astype(np.float32))])
    d = ps.d_prunable
    out = apply_zeroing(ps, compute_ump_mask(ps, 40.0))
    assert abs(sparsity(out) - 0.40) <= 1.0 / d


def test_sparsity_fresh_gaussian_zero():
    rng = np.random.default_rng(3)
    ps = ParameterSet([Tensor("w", rng.normal(size=(30, 30)).astype(np.float32))])
    assert sparsity(ps) == 0.0


def test_regrowth_after_one_sgd_step():
    rng = np.random.default_rng(4)
    ps = ParameterSet([Tensor("w", rng.normal(size=(20, 20)).astype(np.float32))])
    zeroed = apply_zeroing(ps, compute_ump_mask(ps, 40.0))
    s0 = sparsity(zeroed)
    stepped = sgd_step({"w": zeroed["w"].data}, {"w": np.ones((20, 20), dtype=np.float32)}, 0.1)
    assert sparsity(ParameterSet([Tensor("w", stepped["w"])])) < s0
    was_zero = zeroed["w"].data == 0.0
    assert np.any(stepped["w"][was_zero] != 0.0)


def test_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    ps = random_multi_tensor_set(rng)
    mask = compute_ump_mask(ps, 37.5, source="TAG")
    path = str(tmp_path / "m.padm")
    save_mask(mask, path)
    loaded = load_mask(path)
    assert loaded == mask
    assert loaded.source == "TAG"
    assert loaded.rate == 37.5


def test_mask_magic_differs_from_checkpoint(tmp_path):
    ps = vec_set([1.0, 2.0])
    mask = compute_ump_mask(ps, 50.0)
    path = str(tmp_path / "m.padm")
    save_mask(mask, path)
    with pytest.raises(NotACheckpointError, match="not a PADA checkpoint"):
        load_checkpoint(path)


def test_unknown_mask_source_rejected():
    with pytest.raises(ValueError, match="source"):
        Mask([], source="mystery")
