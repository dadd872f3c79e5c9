"""Named tensor storage and the .pada/.padm file formats.

Builds a tiny parameter set, saves it, shows the first bytes of the file,
and round-trips a pruning mask through the packed-bit mask format.
"""

import os
import tempfile

import numpy as np

from pada import (
    ParameterSet,
    Tensor,
    compute_ump_mask,
    load_checkpoint,
    load_mask,
    save_checkpoint,
    save_mask,
    structural_mismatch,
)

# A model is an ordered list of named float32 tensors.  Rank-2 tensors
# (weight matrices) are prunable by default, rank-1 (biases) are not.
ps = ParameterSet(
    [
        Tensor("layers.0.weight", np.array([[1.0, -2.0], [0.5, 4.0]], dtype=np.float32)),
        Tensor("layers.0.bias", np.zeros(2, dtype=np.float32)),
    ],
    role="pretrained",
    meta={"seed": "7"},
)
print("tensors:", ps.names())
print("prunable flags:", [t.prunable for t in ps], "-> d_prunable =", ps.d_prunable)

with tempfile.TemporaryDirectory(prefix="pada-demo-") as workdir:
    path = os.path.join(workdir, "model.pada")
    save_checkpoint(ps, path)
    raw = open(path, "rb").read()
    print(f"\nwrote {path} ({len(raw)} bytes), first 16 bytes: {raw[:16].hex(' ')}")

    loaded = load_checkpoint(path)
    print("round-trip equal (bit-exact):", loaded == ps)
    print("structures compatible:", structural_mismatch(loaded, ps) is None)

    # Masks cover only the prunable tensors and serialize as packed bits.
    mask = compute_ump_mask(ps, 50.0, source="TAG")
    print("\n50% magnitude mask over layers.0.weight:", mask.entries[0].bits.ravel().astype(int))
    mpath = os.path.join(workdir, "model.padm")
    save_mask(mask, mpath)
    print("mask file magic:", open(mpath, "rb").read(4))
    print("mask round-trip equal:", load_mask(mpath) == mask)
