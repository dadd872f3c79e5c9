import math
import os
import re
import stat
import struct

import numpy as np
import pytest

from pada.config import ConfigError, load_config
from pada.params import (
    MASK_MAGIC,
    FormatError,
    ParameterSet,
    Tensor,
    atomic_write_text,
    flat_prunable_values,
    load_checkpoint,
    save_checkpoint,
    structural_mismatch,
    write_container,
    write_csv,
    write_json,
)
from pada.pruning import compute_ump_mask, load_mask, save_mask
from pada.schedule import read_log_jsonl


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
    with pytest.raises(FormatError, match="bad.pada: not a PADA checkpoint \\(bad magic\\)"):
        load_checkpoint(str(path))


def test_truncated_payload(tmp_path):
    ps = ParameterSet([Tensor("w", np.arange(100, dtype=np.float32).reshape(10, 10))])
    path = tmp_path / "t.pada"
    save_checkpoint(ps, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # cuts inside the 400-byte float payload
    with pytest.raises(FormatError, match="t.pada: truncated tensor data"):
        load_checkpoint(str(path))


def test_unsupported_version(tmp_path):
    ps = two_tensor_set()
    path = tmp_path / "v.pada"
    save_checkpoint(ps, str(path))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="v.pada: unsupported format version 99"):
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

    # the writer always writes the first pair's key, so a file without it is corrupt
    key, value = ("role", b"pretrained") if kind == "checkpoint" else ("source", b"TAG")
    pair = struct.pack("<H", len(key)) + key.encode() + struct.pack("<I", len(value)) + value
    assert raw.count(pair) == raw.count(key.encode()) == 1
    at = raw.index(pair)  # right after the pair count
    (pairs,) = struct.unpack_from("<I", raw, at - 4)
    removed = raw[: at - 4] + struct.pack("<I", pairs - 1) + raw[at + len(pair) :]
    renamed = raw.replace(key.encode(), key[:-1].encode() + b"f")  # role -> rolf
    for case in (removed, renamed):
        path.write_bytes(case)
        with pytest.raises(FormatError) as info:
            load(str(path))
        assert str(info.value) == f"{path}: no {key} metadata"


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


@pytest.mark.parametrize("rate", ["nan", "inf", "-5", "150"])
def test_a_mask_rate_outside_0_to_100_is_a_format_error(tmp_path, rate):
    # a report copies the rate out, so a NaN one would reach mask_report.json
    path = str(tmp_path / "m.padm")
    write_container(path, MASK_MAGIC, [("w", True, (4,), b"\x05")], {"source": "TAG", "rate": rate})
    with pytest.raises(FormatError, match=r"mask rate must lie in \[0, 100\]") as info:
        load_mask(path)
    assert path in str(info.value)


def test_role_is_a_reserved_meta_key(tmp_path):
    with pytest.raises(ValueError, match="reserved"):
        ParameterSet([], role="adapted", meta={"role": "pretrained"})
    ps = ParameterSet([], role="adapted")
    ps.meta["role"] = "pretrained"  # edited after construction
    with pytest.raises(ValueError, match="reserved"):
        save_checkpoint(ps, str(tmp_path / "r.pada"))


def test_a_mask_without_its_rate_is_a_format_error(tmp_path):
    # save_mask writes source and rate, so a mask without either never came from it
    path = str(tmp_path / "m.padm")
    write_container(path, MASK_MAGIC, [("w", True, (4,), b"\x05")], {"source": "TAG"})
    with pytest.raises(FormatError, match=f"^{re.escape(path)}: no rate metadata$"):
        load_mask(path)


def test_metadata_is_strings_only(tmp_path):
    # the container holds only strings, so no checkpoint could hold the others
    for meta in ({"n": 3}, {3: "n"}, {"n": None}):
        with pytest.raises(ValueError, match="metadata keys and values must be strings"):
            ParameterSet([], meta=meta)
    ps = ParameterSet([], role="adapted")
    ps.meta["n"] = 3  # edited after construction
    with pytest.raises(ValueError, match="metadata keys and values must be strings, got 'n': 3"):
        save_checkpoint(ps, str(tmp_path / "n.pada"))
    assert os.listdir(tmp_path) == []


def test_an_overlong_metadata_key_is_refused_by_name(tmp_path):
    key = "k" * 0x10000  # one byte past what its uint16 length holds
    with pytest.raises(ValueError, match=f"^metadata key too long: '{key}'$"):
        save_checkpoint(ParameterSet([], meta={key: "v"}), str(tmp_path / "k.pada"))
    assert os.listdir(tmp_path) == []


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError, match="nope.pada"):
        load_checkpoint(str(tmp_path / "nope.pada"))


READERS = {
    "config.json": load_config,
    "pretrained.pada": load_checkpoint,
    "tag_once_seed0.padm": load_mask,
    "tag_once_seed0.jsonl": read_log_jsonl,
}


@pytest.mark.parametrize("name", list(READERS))
@pytest.mark.parametrize("case, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
def test_an_unreadable_input_names_its_path_once(tmp_path, name, case, reason):
    # every reader opens its file through params.read_file, which takes a pathlib.Path too
    path = tmp_path / name
    if case == "directory":
        path.mkdir()
    with pytest.raises(OSError) as info:
        READERS[name](path)
    assert str(info.value) == f"cannot read {path}: {reason}"


@pytest.mark.parametrize("name", ["config.json", "tag_once_seed0.jsonl"])
def test_json_nested_past_the_recursion_limit_is_not_json(tmp_path, name):
    # json.loads raises RecursionError there, which the CLI would call a fault of pada itself
    path = tmp_path / name
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises((ConfigError, FormatError), match="maximum recursion depth") as info:
        READERS[name](path)
    assert str(path) in str(info.value)


def test_only_params_opens_a_file():
    # every input is read by read_file and every output written by _atomic_write, so each
    # failure has one wording; the executor's worker pipes are os.fdopen, not open
    import ast
    from pathlib import Path

    import pada

    opens = []
    for module in sorted(Path(pada.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        within = {}  # each node's innermost function: ast.walk visits outer functions first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                within.update((id(node), func.name) for node in ast.walk(func))
        opens += [
            (module.name, within.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"
        ]
    assert sorted(opens) == [("params.py", "_atomic_write"), ("params.py", "read_file")]


WRITERS = {
    "text": lambda path: atomic_write_text(path, "x\n"),
    "checkpoint": lambda path: save_checkpoint(two_tensor_set(), path),
    "mask": lambda path: save_mask(compute_ump_mask(two_tensor_set(), 50.0), path),
    "csv": lambda path: write_csv(path, ["a"], [[1.0]]),
    "json": lambda path: write_json(path, {"a": 1.0}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("case", ["missing-parent", "target-is-a-directory"])
def test_a_failed_write_names_its_path_once_and_leaves_no_temp_file(tmp_path, writer, case):
    path = tmp_path / "missing" / "out" if case == "missing-parent" else tmp_path / "out"
    if case == "target-is-a-directory":
        path.mkdir()
    with pytest.raises(OSError) as info:
        WRITERS[writer](str(path))
    assert str(info.value).count(f"cannot write {path}: ") == 1
    assert "cannot write" not in str(info.value.__cause__)  # wrapped once, not twice
    assert list(tmp_path.rglob(".pada-tmp-*")) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_every_writer_gives_its_file_the_mode_open_would(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "open", "w"):
            pass
        for name, write in WRITERS.items():
            write(str(tmp_path / name))
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["open", *WRITERS], 0o666 & ~umask)


def test_results_files_write_floats_by_repr_and_the_rest_by_str(tmp_path):
    # a string that reads like a non-finite float is only a string
    write_csv(str(tmp_path / "t.csv"), ["a", "b", "c", "d"], [["nan", 0.1, 3, np.float64(1 / 3)]])
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d\nnan,0.1,3,0.3333333333333333\n"
    write_json(str(tmp_path / "t.json"), {"a": [0.1, True]})
    assert (tmp_path / "t.json").read_text() == '{\n  "a": [\n    0.1,\n    true\n  ]\n}\n'


@pytest.mark.parametrize("writer", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_results_file_refuses_nan_and_infinity_and_leaves_no_file(tmp_path, writer, bad):
    path = str(tmp_path / "out")
    with pytest.raises(ValueError, match=f"^cannot write {re.escape(path)}: "):
        if writer == "csv":
            write_csv(path, ["run", "rate"], [["a", 0.5], ["b", bad]])
        else:
            write_json(path, {"runs": [{"rate": 0.5}, {"rate": bad}]})
    assert os.listdir(tmp_path) == []


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
