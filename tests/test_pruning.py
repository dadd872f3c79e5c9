import math

import numpy as np
import pytest

from pada.params import (
    FormatError,
    ParameterSet,
    StructureMismatchError,
    Tensor,
    flat_prunable_values,
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
        values = flat_prunable_values(ps).tolist()
        keep, z = oracle_keep(values, rate)
        assert mask_bits(mask).tolist() == keep
        assert mask.zero_bits == z == prune_count(rate, len(values))


# float32 bit patterns that a ranking on magnitudes might get wrong: signed zeros, the smallest
# and largest subnormals, the smallest normal, infinities, NaNs of several payloads and both
# signs, and +-1.0 to tie at the threshold
ADVERSARIAL_BITS = [
    0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x00800000,
    0x7F800000, 0xFF800000, 0x7F800001, 0xFF800001, 0x7FC00000, 0xFFC00000, 0x7FFFFFFF,
    0xFFFFFFFF, 0x7FA00001, 0x3F800000, 0xBF800000, 0x3F800000,
]


def stable_sort_keep(values: np.ndarray, z: int) -> np.ndarray:
    """The oracle: retain all but the first ``z`` of a stable argsort of the magnitudes."""
    keep = np.ones(values.size, dtype=bool)
    keep[np.argsort(np.abs(values), kind="stable")[:z]] = False
    return keep


def split_set(values: np.ndarray, cuts) -> ParameterSet:
    """``values`` as prunable tensors, cut before each flat position of ``cuts``."""
    parts = np.split(values, sorted(set(cuts)))
    return ParameterSet([Tensor(f"t{k}", part, True) for k, part in enumerate(parts)])


def rate_for(z: int, d: int) -> float:
    rate = 100.0 * (z + 0.5) / d if z < d else 100.0
    assert prune_count(rate, d) == z
    return rate


def test_selection_equals_a_stable_sort_at_large_d():
    """Past the grid-wide size (75,264): ties, signed zeros, infinities and NaN, across tensors."""
    rng = np.random.default_rng(11)
    sizes = (40_000, 30_001, 30_002)
    d = sum(sizes)
    values = np.round(rng.normal(size=d), 1).astype(np.float32)  # ~40 magnitudes, heavy ties
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], dtype=np.float32)
    values[rng.choice(d, 3_000, replace=False)] = rng.choice(special, 3_000)
    # a magnitude found nowhere else, across the first tensor boundary and of both signs
    values[sizes[0] - 10 : sizes[0] + 10] = np.float32(0.05) * rng.choice([-1, 1], 20)
    mags = np.abs(values)
    straddle = int(np.count_nonzero(mags < np.float32(0.05))) + 15  # 10 before the boundary
    at_inf = int(np.count_nonzero(mags < np.inf)) + 7
    ps = split_set(values, np.cumsum(sizes[:-1]))
    for z in (0, 1, straddle, at_inf, d - 1, d):
        mask = compute_ump_mask(ps, rate_for(z, d))
        assert np.array_equal(mask_bits(mask), stable_sort_keep(values, z)), z
        assert mask.zero_bits == z


def test_selection_equals_a_stable_sort_on_adversarial_bits():
    # every bit pattern twice, in two tensors, so each magnitude ties; every z from 0 to d
    bits = np.array(ADVERSARIAL_BITS + ADVERSARIAL_BITS[::-1], dtype=np.uint32)
    values = bits.view(np.float32)
    d = values.size
    ps = split_set(values, [7])
    for z in range(d + 1):
        mask = compute_ump_mask(ps, rate_for(z, d))
        assert np.array_equal(mask_bits(mask), stable_sort_keep(values, z)), z
        assert mask.zero_bits == z
    assert flat_prunable_values(ps).view(np.uint32).tolist() == bits.tolist()  # ps unchanged


def test_selection_equals_a_stable_sort_on_random_adversarial_vectors():
    rng = np.random.default_rng(13)
    pool = np.array(ADVERSARIAL_BITS, dtype=np.uint32)
    for _ in range(300):
        d = int(rng.integers(1, 60))
        bits = rng.choice(pool, d)
        plain = rng.random(d) < 0.3  # some ordinary magnitudes, a few of them tied
        normal = np.round(rng.normal(size=int(plain.sum())), 1).astype(np.float32)
        bits[plain] = normal.view(np.uint32)
        values = bits.view(np.float32)
        ps = split_set(values, rng.integers(1, d, size=int(rng.integers(0, 3))) if d > 1 else [])
        z = int(rng.choice([0, 1, d, int(rng.integers(0, d + 1))]))
        mask = compute_ump_mask(ps, rate_for(z, d))
        assert np.array_equal(mask_bits(mask), stable_sort_keep(values, z)), (bits.tolist(), z)


def test_sparsity_equals_the_share_of_zeros_of_the_concatenated_values():
    rng = np.random.default_rng(17)
    pool = np.array(ADVERSARIAL_BITS, dtype=np.uint32)
    for _ in range(100):
        d = int(rng.integers(1, 60))
        values = rng.choice(pool, d).view(np.float32)  # -0.0 counts as a zero, NaN does not
        ps = split_set(values, rng.integers(1, d, size=2) if d > 1 else [])
        assert sparsity(ps) == float(np.count_nonzero(np.concatenate(
            [t.data.ravel() for t in ps.tensors]) == 0.0) / d)
    assert sparsity(vec_set([0.0, -0.0, np.nan, 1.0])) == 0.5


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
    stepped = sgd_step(zeroed, {"w": np.ones((20, 20), dtype=np.float32)}, 0.1)
    assert sparsity(stepped) < s0
    was_zero = zeroed["w"].data == 0.0
    assert np.any(stepped["w"].data[was_zero] != 0.0)


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


def test_a_mask_with_a_set_padding_bit_is_refused(tmp_path):
    # 10 bits take 2 bytes, and bits 2-7 of the second are padding; with one
    # set, the file would load as the mask it was saved from, whose save
    # writes other bytes
    mask = compute_ump_mask(vec_set(np.arange(1.0, 11.0).reshape(2, 5)), 40.0)
    path = tmp_path / "m.padm"
    save_mask(mask, str(path))
    raw = bytearray(path.read_bytes())
    last = 4 + 1 + 4 + 2 + len("w") + 1 + 1 + 2 * 4 + 1  # after the header, name, flag and dims
    assert raw[last] == 0b11  # elements 8 and 9 are kept
    raw[last] |= 0b10000000
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"m\.padm: tensor 'w': nonzero padding bits$"):
        load_mask(str(path))


def test_mask_magic_differs_from_checkpoint(tmp_path):
    ps = vec_set([1.0, 2.0])
    mask = compute_ump_mask(ps, 50.0)
    path = str(tmp_path / "m.padm")
    save_mask(mask, path)
    with pytest.raises(FormatError, match="m.padm: not a PADA checkpoint"):
        load_checkpoint(path)


def test_unknown_mask_source_rejected():
    with pytest.raises(ValueError, match="source"):
        Mask([], source="mystery")
