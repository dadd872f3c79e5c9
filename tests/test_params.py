import numpy as np
import pytest

from pada.params import (
    FormatError,
    NotACheckpointError,
    ParameterSet,
    Tensor,
    TruncatedFileError,
    UnsupportedVersionError,
    flat_prunable_values,
    load_checkpoint,
    save_checkpoint,
    structural_mismatch,
)
from pada.pruning import compute_ump_mask, load_mask, save_mask


def two_tensor_set():
    return ParameterSet(
        [
            Tensor("layers.0.weight", np.array([[1.5, -2.25], [0.0, 3.0]], dtype=np.float32)),
            Tensor("layers.0.bias", np.array([0.5, -0.5], dtype=np.float32)),
        ],
        role="pretrained",
        meta={"activation": "tanh", "note": "fixture"},
    )


def test_roundtrip_identity(tmp_path):
    ps = two_tensor_set()
    path = str(tmp_path / "a.pada")
    save_checkpoint(ps, path)
    assert load_checkpoint(path) == ps


def test_roundtrip_empty_set(tmp_path):
    ps = ParameterSet([], role="adapted")
    path = str(tmp_path / "empty.pada")
    save_checkpoint(ps, path)
    loaded = load_checkpoint(path)
    assert loaded == ps
    assert len(loaded.tensors) == 0


def test_roundtrip_subnormal_bit_exact(tmp_path):
    # 1e-45 rounds to the smallest positive float32 subnormal (bit pattern 1)
    data = np.array([1e-45, -1e-45, 0.0, 1.0], dtype=np.float32)
    ps = ParameterSet([Tensor("w", data.reshape(2, 2))])
    path = str(tmp_path / "sub.pada")
    save_checkpoint(ps, path)
    loaded = load_checkpoint(path)
    before = ps["w"].data.view(np.uint32)
    after = loaded["w"].data.view(np.uint32)
    assert np.array_equal(before, after)
    assert before.ravel()[0] == 1


def test_roundtrip_preserves_order_names_flags_meta(tmp_path):
    ps = ParameterSet(
        [
            Tensor("zz", np.ones((2, 2), dtype=np.float32), prunable=True),
            Tensor("aa", np.ones(3, dtype=np.float32), prunable=True),
            Tensor("mm", np.ones((1, 4), dtype=np.float32), prunable=False),
        ],
        role="finetuned_donor",
        meta={"b": "2", "a": "1"},
    )
    path = str(tmp_path / "o.pada")
    save_checkpoint(ps, path)
    loaded = load_checkpoint(path)
    assert loaded.names() == ["zz", "aa", "mm"]
    assert [t.prunable for t in loaded] == [True, True, False]
    assert loaded.role == "finetuned_donor"
    assert list(loaded.meta.items()) == [("b", "2"), ("a", "1")]


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.pada"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(NotACheckpointError, match="not a PADA checkpoint"):
        load_checkpoint(str(path))


def test_truncated_payload(tmp_path):
    ps = ParameterSet([Tensor("w", np.arange(100, dtype=np.float32).reshape(10, 10))])
    path = tmp_path / "t.pada"
    save_checkpoint(ps, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # cuts inside the 400-byte float payload
    with pytest.raises(TruncatedFileError, match="truncated tensor data"):
        load_checkpoint(str(path))


def test_unsupported_version(tmp_path):
    ps = two_tensor_set()
    path = tmp_path / "v.pada"
    save_checkpoint(ps, str(path))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(str(path))


def test_trailing_bytes_rejected(tmp_path):
    ps = two_tensor_set()
    for path, save, load in (
        (tmp_path / "x.pada", save_checkpoint, load_checkpoint),
        (tmp_path / "x.padm", save_mask, load_mask),
    ):
        obj = ps if save is save_checkpoint else compute_ump_mask(ps, 50.0)
        save(obj, str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load(str(path))


def _corruptions(raw: bytes, flips: int, seed: int):
    """Every strict prefix of ``raw``, then ``flips`` seeded single-byte XOR flips."""
    for end in range(len(raw)):
        yield "truncated", raw[:end]
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        buf = bytearray(raw)
        buf[int(rng.integers(len(buf)))] ^= int(rng.integers(1, 256))
        yield "flipped", bytes(buf)


@pytest.mark.parametrize("kind", ["checkpoint", "mask"])
def test_corrupt_container_bytes_are_format_errors(tmp_path, kind):
    ps = two_tensor_set()
    path = tmp_path / ("c.pada" if kind == "checkpoint" else "c.padm")
    if kind == "checkpoint":
        save_checkpoint(ps, str(path))
        load = load_checkpoint
    else:
        save_mask(compute_ump_mask(ps, 50.0, source="TAG"), str(path))
        load = load_mask
    raw = path.read_bytes()
    outcomes = {"truncated": [], "flipped": []}
    for how, case in _corruptions(raw, 400, seed=5):
        path.write_bytes(case)
        try:
            load(str(path))
        except FormatError as exc:
            assert str(path) in str(exc)
            outcomes[how].append("format")
        else:
            outcomes[how].append("loaded")
    # no strict prefix is a complete file; some flips (payload bytes) still load
    assert set(outcomes["truncated"]) == {"format"}
    assert set(outcomes["flipped"]) == {"format", "loaded"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_weights_are_format_errors(tmp_path, bad):
    # magnitude ranking would never prune a NaN, so a checkpoint holding one is corrupt
    ps = two_tensor_set()
    ps["layers.0.bias"].data[1] = bad
    path = str(tmp_path / "w.pada")
    save_checkpoint(ps, path)
    with pytest.raises(FormatError, match="'layers.0.bias' holds NaN or inf") as info:
        load_checkpoint(path)
    assert path in str(info.value)


def test_role_is_a_reserved_meta_key(tmp_path):
    with pytest.raises(ValueError, match="reserved"):
        ParameterSet([], role="adapted", meta={"role": "pretrained"})
    ps = ParameterSet([], role="adapted")
    ps.meta["role"] = "pretrained"  # edited after construction
    with pytest.raises(ValueError, match="reserved"):
        save_checkpoint(ps, str(tmp_path / "r.pada"))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError, match="nope.pada"):
        load_checkpoint(str(tmp_path / "nope.pada"))


def test_flat_view_order_and_length():
    ps = ParameterSet(
        [
            Tensor("a", np.array([[1.0, 2.0, 3.0]], dtype=np.float32)),
            Tensor("b", np.array([4.0, 5.0], dtype=np.float32), prunable=True),
        ]
    )
    values = flat_prunable_values(ps)
    assert values.dtype == np.float32
    assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_flat_view_all_nonprunable_is_empty():
    ps = ParameterSet([Tensor("b", np.ones(7, dtype=np.float32))])
    assert flat_prunable_values(ps).shape == (0,)
    assert ps.d_prunable == 0


def test_flat_view_length_matches_independent_recount():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tensors = []
        for k in range(rng.integers(1, 5)):
            shape = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 4)))
            tensors.append(
                Tensor(f"t{k}", rng.normal(size=shape).astype(np.float32), bool(rng.integers(2)))
            )
        ps = ParameterSet(tensors)
        expected = 0
        for t in ps.tensors:
            if t.prunable:
                for _v in t.data.ravel():
                    expected += 1
        assert len(flat_prunable_values(ps)) == expected == ps.d_prunable


def test_shapes_compatible_basic():
    a = two_tensor_set()
    assert structural_mismatch(a, a) is None
    b = a.copy()
    b.tensors[1] = Tensor("layers.0.bias", np.zeros(3, dtype=np.float32))
    assert "shape" in structural_mismatch(a, b)


def test_shapes_compatible_flags_participate():
    a = ParameterSet([Tensor("w", np.ones((2, 2), dtype=np.float32), prunable=True)])
    b = ParameterSet([Tensor("w", np.ones((2, 2), dtype=np.float32), prunable=False)])
    assert "prunable" in structural_mismatch(a, b)


def test_shapes_compatible_values_may_differ():
    a = ParameterSet([Tensor("w", np.ones((2, 2), dtype=np.float32))])
    b = ParameterSet([Tensor("w", np.full((2, 2), 9.0, dtype=np.float32))])
    assert structural_mismatch(a, b) is None


def test_shapes_compatible_is_equivalence_relation():
    rng = np.random.default_rng(11)

    def random_set(struct_seed):
        r = np.random.default_rng(struct_seed)
        tensors = []
        for k in range(int(r.integers(1, 4))):
            shape = tuple(int(d) for d in r.integers(1, 4, size=int(r.integers(1, 3))))
            tensors.append(
                Tensor(f"t{k}", rng.normal(size=shape).astype(np.float32), bool(r.integers(2)))
            )
        return ParameterSet(tensors)

    def compatible(x, y):
        return structural_mismatch(x, y) is None

    # same structural seed -> same structure with different values
    sets = [random_set(s) for s in (1, 1, 1, 2, 2, 3)]
    for x in sets:
        assert compatible(x, x)
    for x in sets:
        for y in sets:
            assert compatible(x, y) == compatible(y, x)
            for z in sets:
                if compatible(x, y) and compatible(y, z):
                    assert compatible(x, z)


def test_tensor_invariants():
    with pytest.raises(ValueError):
        Tensor("", np.ones(3, dtype=np.float32))
    with pytest.raises(ValueError):
        ParameterSet(
            [
                Tensor("same", np.ones(2, dtype=np.float32)),
                Tensor("same", np.ones(2, dtype=np.float32)),
            ]
        )
    with pytest.raises(ValueError):
        ParameterSet([], role="bogus")


def test_default_prunable_rule():
    assert Tensor("w", np.ones((2, 2), dtype=np.float32)).prunable
    assert not Tensor("b", np.ones(2, dtype=np.float32)).prunable
    # rule is overridable either way
    assert Tensor("b", np.ones(2, dtype=np.float32), prunable=True).prunable
    assert not Tensor("w", np.ones((2, 2), dtype=np.float32), prunable=False).prunable
