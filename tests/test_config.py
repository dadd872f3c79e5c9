"""The config schema: every malformed config ends in one ``config:`` line naming its file and
the key's dotted path."""

import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from pada.cli import main
from pada.config import default_config, parse_config
from pada.data import DomainShiftSpec
from pada.trainer import ModelArch, TrainConfig

FORMATS = os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")

DEFAULTS = {
    cls: {f.name: f.default for f in fields(cls)} for cls in (DomainShiftSpec, ModelArch, TrainConfig)
}
# the keys a config may leave out, and the value each then parses to
OPTIONAL = {
    **{f"task.{name}": default for name, default in DEFAULTS[DomainShiftSpec].items()},
    "arch.activation": DEFAULTS[ModelArch]["activation"],
    "pretrain.denoise_std": DEFAULTS[TrainConfig]["denoise_std"],
    "include_dft": True,
}
# the keys holding a seed (a list of them, for ``seeds``), which may not be negative
SEEDS = ("task.seed", "pretrain.seed", "donor.seed", "seeds")


def _keys(doc, prefix=""):
    """(dotted path, value) of every key of ``doc``, the objects' keys after their own."""
    for key, value in doc.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


def _leaves(doc):
    return [path for path, value in _keys(doc) if not isinstance(value, dict)]


def _parsed(cfg, path):
    """The ExperimentConfig value that config key ``path`` becomes."""
    *sections, key = path.split(".")
    for name in sections:
        cfg = getattr(cfg, name)
    return getattr(cfg, key)


def _edited(path, edit):
    """``default_config()`` with ``edit`` applied to the object holding ``path``'s key."""
    doc = default_config()
    *sections, key = path.split(".")
    parent = doc
    for name in sections:
        parent = parent[name]
    edit(parent, key)
    return doc


def _pretrain(tmp_path, capsys, doc):
    """``pada pretrain`` on ``doc`` with its default ``out`` moved into ``tmp_path``.

    Returns the exit code, the stderr lines and whether ``out`` was created.
    A line naming the config file, ``config: <file>: message``, is returned as
    ``config: message``; any other line gets an ``unnamed:`` prefix, so that
    no expected line matches it.
    """
    out = tmp_path / "exp"
    if isinstance(doc, dict) and doc.get("out") == default_config()["out"]:
        doc["out"] = str(out)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["pretrain", "--config", str(cfg_path)])
    named = f"config: {cfg_path}: "
    lines = [
        "config: " + line[len(named):] if line.startswith(named) else "unnamed: " + line
        for line in capsys.readouterr().err.strip().splitlines()
    ]
    made = out.exists()
    return code, lines, made


def _wrong_values(value, rng):
    """A string, a bool, a fraction, a list, an object and null, minus those of ``value``'s type.

    No config list holds objects, so the list is wrong for every key; null is
    allowed only where the default is null.
    """
    fraction = int(rng.integers(1, 1000)) + 0.5
    candidates = [f"s{rng.integers(1000)}", bool(rng.integers(2)), fraction,
                  [{"k": fraction}], {"k": fraction}, None]
    return [c for c in candidates if type(c) is not type(value) or isinstance(c, list)]


def test_config_fuzz_refuses_each_malformed_key_with_one_line(tmp_path, capsys):
    rng = np.random.default_rng(9)
    cases = []
    for path, value in _keys(default_config()):
        for wrong in _wrong_values(value, rng):
            doc = _edited(path, lambda parent, key, wrong=wrong: parent.__setitem__(key, wrong))
            cases.append((doc, f"config: {path} must be "))
        if path not in OPTIONAL:
            doc = _edited(path, lambda parent, key: parent.pop(key))
            cases.append((doc, f"config: missing config field: {path}"))
        if path in SEEDS:  # an integral float counts as an integer, so it is refused too
            negative = -int(rng.integers(1, 1000))
            wrong = [*value, float(negative)] if isinstance(value, list) else negative
            doc = _edited(path, lambda parent, key, wrong=wrong: parent.__setitem__(key, wrong))
            kind = "a non-negative integer"
            kind = f"a list, each {kind}" if isinstance(value, list) else kind
            cases.append((doc, f"config: {path} must be {kind}, got {wrong!r}"))
    objects = [""] + [path for path, value in _keys(default_config()) if isinstance(value, dict)]
    for path in objects:
        name = f"k{rng.integers(1000)}"
        doc = _edited(f"{path}.{name}" if path else name, lambda parent, key: parent.update({key: 1}))
        cases.append((doc, f"config: unknown config field: {path + '.' if path else ''}{name}"))
    cases.append(([default_config()], "config: the config must be an object"))
    assert len(cases) > 200
    for doc, expected in cases:
        code, lines, made = _pretrain(tmp_path, capsys, doc)
        assert (code, len(lines), made) == (1, 1, False), (expected, lines)
        assert lines[0].startswith(expected), (expected, lines)


def test_left_out_optional_keys_parse_to_their_defaults():
    assert set(OPTIONAL) < set(_leaves(default_config()))
    for path, default in OPTIONAL.items():
        cfg = parse_config(_edited(path, lambda parent, key: parent.pop(key)))
        assert _parsed(cfg, path) == default, path


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("target.lr", 0, "target: learning rate must be positive"),
        ("pretrain.lr", -1, "pretrain: learning rate must be positive"),
        ("donor.batch", 0, "donor: batch size must be positive"),
        ("pretrain.denoise_std", -0.1, "pretrain: denoise_std must be >= 0"),
        ("task.num_classes", 0, "task: degenerate task spec: need at least 1 class"),
        ("task.mean_scale", -0.5, "task: mean_scale must be >= 0"),
        ("arch.activation", "gelu", "arch: unknown activation 'gelu'"),
    ],
)
def test_bounds_name_their_section_before_any_stage_runs(tmp_path, capsys, path, value, message):
    doc = _edited(path, lambda parent, key: parent.__setitem__(key, value))
    code, lines, made = _pretrain(tmp_path, capsys, doc)
    assert (code, lines, made) == (1, [f"config: {message}"], False)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("out", "", "out must be a nonempty path without a null byte, got ''"),
        ("out", "exp\0x", "out must be a nonempty path without a null byte, got 'exp\\x00x'"),
        # the stage checkpoints have fixed names under out, which no key renames
        ("pretrained", "pretrained.pada", "unknown config field: pretrained"),
        ("donor_checkpoint", "donor.pada", "unknown config field: donor_checkpoint"),
    ],
    ids=["empty-out", "null-byte-out", "pretrained", "donor_checkpoint"],
)
def test_an_unusable_out_or_a_removed_key_is_refused_before_any_stage_runs(
    tmp_path, capsys, monkeypatch, key, value, message
):
    monkeypatch.chdir(tmp_path)  # where a relative out would be made
    doc = default_config()
    doc[key] = value
    code, lines, made = _pretrain(tmp_path, capsys, doc)
    assert (code, lines, made) == (1, [f"config: {message}"], False)
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("strategies", ["TAG", "TAW", "TAG"], "duplicate strategies: ['TAG']"),
        ("strategies", ["CD-TAW", "TAG", "CD-TAW", "TAG"], "duplicate strategies: ['CD-TAW', 'TAG']"),
        ("frequencies", ["once", "once"], "duplicate frequencies: ['once']"),
        ("seeds", [3, 1, 3], "duplicate seeds in seed list: [3]"),
        ("frequencies", [], "the grid plans no run: include_dft is false, and strategies or "
                            "frequencies is empty"),
        ("seeds", [], "seed list must be nonempty"),
    ],
)
def test_duplicate_grid_entries_are_refused(tmp_path, capsys, key, value, message):
    # without the DFT cells, so a grid whose strategies or frequencies are empty plans no run
    doc = default_config()
    doc["include_dft"], doc[key] = False, value
    code, lines, made = _pretrain(tmp_path, capsys, doc)
    assert (code, lines, made) == (1, [f"config: {message}"], False)


def test_empty_strategies_with_dft_is_a_dft_only_grid():
    doc = default_config()
    doc["strategies"] = []
    assert parse_config(doc).cells() == [("DFT", "-")]


def test_formats_doc_lists_every_config_key_with_its_default():
    with open(FORMATS, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Config file", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+) \| ([^|]+) \|", section, re.M)
    assert [path for path, _, _ in rows] == _leaves(default_config())
    for path, _, default in rows:
        if path in OPTIONAL:
            assert json.loads(default.strip().strip("`")) == OPTIONAL[path], path
        else:
            assert default.strip() == "required", path
