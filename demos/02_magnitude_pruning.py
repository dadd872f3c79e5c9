"""Unstructured magnitude pruning and weight regrowth.

Shows the exact-count guarantee, the deterministic tie-break, and the key
property that distinguishes this from conventional masked pruning: zeroed
weights receive gradient updates and regrow.
"""

import numpy as np

from pada import (
    LabeledBatch,
    ModelArch,
    ParameterSet,
    Tensor,
    apply_zeroing,
    compute_ump_mask,
    init_model,
    loss_and_grads,
    prune_count,
    sgd_step,
    sparsity,
)

# --- exact counts and global ranking -------------------------------------
ps = ParameterSet([Tensor("w", np.array([0.5, -0.1, 0.3, -0.7], dtype=np.float32).reshape(2, 2))])
mask = compute_ump_mask(ps, 50.0)
print("values       :", ps["w"].data.ravel())
print("mask (1=keep):", mask.entries[0].bits.ravel().astype(int), "- the two smallest |w| go")
print("zeroed       :", apply_zeroing(ps, mask)["w"].data.ravel())

d = 997  # prime, so floor() actually truncates
big = ParameterSet([Tensor("w", np.random.default_rng(0).normal(size=d).astype(np.float32).reshape(1, d))])
for rate in (10.0, 33.3, 40.0):
    m = compute_ump_mask(big, rate)
    print(f"rate {rate:5.1f}% on d={d}: zero bits = {m.zero_bits} == floor = {prune_count(rate, d)}")

# ties: equal magnitudes are broken by flat position, earliest pruned first
ties = ParameterSet([Tensor("w", np.full((1, 3), 0.2, dtype=np.float32))])
print("tie-break at rate 33.4%:", compute_ump_mask(ties, 33.4).entries[0].bits.ravel().astype(int))

# --- regrowth: pruning keeps every weight trainable -----------------------
arch = ModelArch(input_dim=8, hidden=(16,), num_classes=3, activation="tanh")
model = init_model(arch, seed=1)
zeroed = apply_zeroing(model, compute_ump_mask(model, 40.0))
print(f"\nsparsity right after 40% zeroing: {sparsity(zeroed):.3f}")

rng = np.random.default_rng(2)
batch = LabeledBatch(rng.normal(size=(32, 8)), rng.integers(0, 3, size=32))
# loss_and_grads/sgd_step are one training step of one model, split into its
# backward pass and its update
model = zeroed
for step in range(5):
    loss, grads = loss_and_grads(model, batch)
    model = sgd_step(model, grads, 0.05)
    print(f"after update {step + 1}: sparsity {sparsity(model):.3f} (loss {loss:.3f})")
print("zeroed weights regrew: nothing was frozen, no mask was retained")
