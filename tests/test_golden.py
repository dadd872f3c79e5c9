"""The default experiment, pinned: every file it writes, compared with tests/data/default_golden.json.

``pretrain`` -> ``make-donor`` -> ``run`` -> ``report`` on demos/config_default.json
must reproduce the recorded files.  In every environment:

* each checkpoint, mask and ``table.*`` file is byte-identical (its SHA-256);
* each run log, ``events.csv`` and ``summary.json`` holds the recorded numbers to a
  relative 1e-12, and the rest of its text exactly.

Where Python, numpy and the BLAS name, version and core match the recorded ones,
every file is byte-identical too.  Elsewhere numpy's ``tanh`` or the BLAS kernels
may round differently: gradients are rounded to float32 before each update, so the
checkpoints and masks keep their bits, and only the float64 losses the logs print
move, by about 5e-15 relative.  One ``tanh`` computed in float32 moves them by
2.8e-10 at least, and 102 checkpoints with them.

Record the file again only with a change that says why the bytes had to change:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import os
import platform

import numpy as np
import pytest

from pada.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "demos", "config_default.json")
GOLDEN = os.path.join(ROOT, "tests", "data", "default_golden.json")
REL_TOL = 1e-12  # ~190x the kernel noise, ~280x below the float32-tanh change


def _openblas():
    """The OpenBLAS library this process has loaded, or None (another BLAS, or not Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        return ctypes.CDLL(paths[0]) if paths else None
    except OSError:
        return None


def _openblas_text(lib, what: str) -> str:
    # numpy's wheels rename the symbols: scipy_ before them, 64_ after for 64-bit ints
    for name in (f"{p}openblas_{what}{s}" for p in ("", "scipy_") for s in ("", "64_")):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return "unknown"


def environment() -> dict:
    """Python, numpy and the BLAS name, version and core this process computes with."""
    blas = ["unknown"] * 3
    lib = _openblas()
    if lib is not None:  # "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH ..."
        blas = [*(_openblas_text(lib, "get_config").split() + ["unknown"] * 2)[:2],
                _openblas_text(lib, "get_corename")]
    return {"python": platform.python_version(), "numpy": np.__version__,
            **dict(zip(("blas_name", "blas_version", "blas_core"), blas))}


def has_numbers(name: str) -> bool:
    """Whether file ``name`` holds the float64 losses a kernel may round differently."""
    return name.endswith(".jsonl") or name in ("events.csv", "summary.json")


def numbers(path: str) -> dict:
    """The numbers of a run log, ``events.csv`` or ``summary.json``, in order, read from its raw
    text, and the SHA-256 of its layout: the parsed text with each number replaced by ``#``."""
    values = []

    def number(text):
        values.append(float(text))
        return "#"

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        layout = [[number(cell) if _is_number(cell) else cell for cell in line.split(",")]
                  for line in text.splitlines()]
    else:  # one JSON document per line of a log, or the whole summary
        docs = text.splitlines() if path.endswith(".jsonl") else [text]
        layout = [json.loads(doc, parse_float=number, parse_int=number) for doc in docs]
    return {"layout": hashlib.sha256(json.dumps(layout).encode()).hexdigest(), "values": values}


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_default(tmp: str) -> str:
    """Run the default pipeline under ``tmp``; returns its output directory."""
    with open(CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = doc["out"] = os.path.join(tmp, "out")
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for argv in (["pretrain", "--config", config], ["make-donor", "--config", config],
                 ["run", "--config", config], ["report", out]):
        assert main(argv) == 0, argv
    return out


def written(out: str) -> list[str]:
    """Every file under ``out``, by its path relative to ``out``, sorted."""
    return sorted(os.path.relpath(os.path.join(directory, name), out)
                  for directory, _, names in os.walk(out) for name in names)


def moved_numbers(got: dict, want: dict):
    """None if ``got`` matches ``want`` to REL_TOL; else "layout" or the largest relative change."""
    if got["layout"] != want["layout"] or len(got["values"]) != len(want["values"]):
        return "layout"
    worst = max((abs(a - b) / max(abs(a), abs(b))
                 for a, b in zip(got["values"], want["values"]) if a != b), default=0.0)
    return worst if worst > REL_TOL else None


@pytest.mark.golden
def test_default_pipeline_reproduces_its_golden_table_and_bytes(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    out = run_default(str(tmp_path))
    names = written(out)
    assert names == sorted(golden["sha256"])
    with open(os.path.join(out, "table.json"), encoding="utf-8") as fh:
        assert json.load(fh) == golden["table"]
    recorded = environment() == golden["environment"]
    exact = [name for name in names if recorded or not has_numbers(name)]
    assert [name for name in exact if sha256(os.path.join(out, name)) != golden["sha256"][name]] == []
    moved = {name: moved_numbers(numbers(os.path.join(out, name)), golden["numbers"][name])
             for name in names if has_numbers(name)}
    assert {name: change for name, change in moved.items() if change is not None} == {}


def record(out: str) -> str:
    """The golden file's text for the pipeline output ``out``: one line per file's numbers."""
    names = written(out)
    with open(os.path.join(out, "table.json"), encoding="utf-8") as fh:
        head = {"environment": environment(), "table": json.load(fh),
                "sha256": {name: sha256(os.path.join(out, name)) for name in names}}
    lines = [f"    {json.dumps(name)}: {json.dumps(numbers(os.path.join(out, name)))}"
             for name in names if has_numbers(name)]
    return (json.dumps(head, indent=2)[:-2] + ',\n  "numbers": {\n' + ",\n".join(lines)
            + "\n  }\n}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text = record(run_default(tmp))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {GOLDEN}")
