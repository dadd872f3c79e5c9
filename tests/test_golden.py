"""The default experiment, pinned: its table rows and the SHA-256 of every file it writes.

``pretrain`` -> ``make-donor`` -> ``run`` -> ``report`` on demos/config_default.json
must reproduce tests/data/default_golden.json.  Bits may legitimately differ across
numpy's ``tanh`` or BLAS kernels, so the rows and hashes are compared exactly only in
the environment the file was recorded in.  Elsewhere the test names the fields that
differ and requires the table's order CD-TAW dynamic < TAG dynamic < DFT.

Record the file again only with a change that says why the bytes had to change:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import os
import platform
import warnings

import numpy as np
import pytest

from pada.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "demos", "config_default.json")
GOLDEN = os.path.join(ROOT, "tests", "data", "default_golden.json")


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


def run_default(tmp: str) -> tuple[dict, dict]:
    """Run the default pipeline under ``tmp``; its table.json and {file: SHA-256}."""
    with open(CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = doc["out"] = os.path.join(tmp, "out")
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for argv in (["pretrain", "--config", config], ["make-donor", "--config", config],
                 ["run", "--config", config], ["report", out]):
        assert main(argv) == 0, argv
    hashes = {}
    for directory, _, names in os.walk(out):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out, "table.json"), encoding="utf-8") as fh:
        return json.load(fh), dict(sorted(hashes.items()))


@pytest.mark.golden
def test_default_pipeline_reproduces_its_golden_table_and_bytes(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    table, hashes = run_default(str(tmp_path))
    here = environment()
    differ = [f"{k}: {here[k]} here, {v} recorded" for k, v in golden["environment"].items()
              if here[k] != v]
    if not differ:
        assert table == golden["table"]
        assert sorted(hashes) == sorted(golden["sha256"])
        assert [name for name, h in hashes.items() if golden["sha256"][name] != h] == []
    else:
        warnings.warn(f"golden: checked the table's order only, since {'; '.join(differ)}")
    mean = {(row["strategy"], row["frequency"]): row["mean_error"] for row in table["rows"]}
    assert mean["CD-TAW", "dynamic_iterative"] < mean["TAG", "dynamic_iterative"] < mean["DFT", "-"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table, hashes = run_default(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"environment": environment(), "table": table, "sha256": hashes},
                            indent=2) + "\n")
    print(f"wrote {GOLDEN}")
