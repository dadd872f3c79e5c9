"""Where the initial mask comes from: TAG vs TAW vs CD-TAW.

All three strategies zero the pre-trained model's weights; they differ only
in whose magnitudes pick the positions.  The demo builds the synthetic
domain-shift task, derives all three masks, and compares them with IOU/MMA.
"""

import numpy as np

from pada import (
    DomainShiftSpec,
    ModelArch,
    TrainConfig,
    cdtaw_mask,
    evaluate,
    finetune_supervised,
    gen_domain_shift,
    initial_model,
    iou,
    mma,
    pretrain_denoising,
    sparsity,
    tag_mask,
    taw_mask,
)

task = gen_domain_shift(7, DomainShiftSpec())
print(f"task: |P|={task.source_unlabeled.n} |J|={task.source_labeled.n} "
      f"|L|={task.target_labeled.n} |eval|={task.target_eval.n}")

arch = ModelArch(input_dim=16, hidden=(32, 32), num_classes=6)
pre = pretrain_denoising(arch, task.source_unlabeled,
                         TrainConfig(lr=0.05, batch=32, updates=3000, seed=101, denoise_std=0.3))
donor = finetune_supervised(pre, task.source_labeled,
                            TrainConfig(lr=0.05, batch=32, updates=3000, seed=202),
                            role="finetuned_donor")
print(f"donor source-domain error: {evaluate(donor, task.source_labeled):.3f}")

r1 = 40.0
m_tag = tag_mask(pre, r1)                       # pre-trained magnitudes
target_ft = finetune_supervised(pre, task.target_labeled,  # the DFT model
                                TrainConfig(lr=0.05, batch=16, updates=2000, seed=0))
m_taw = taw_mask(pre, target_ft, r1)            # magnitudes after target fine-tune
m_cd = cdtaw_mask(pre, donor, r1)               # donor magnitudes

print(f"\nmask agreement at r1={r1}:")
for name_a, a, name_b, b in (
    ("TAG", m_tag, "TAW", m_taw),
    ("TAG", m_tag, "CD-TAW", m_cd),
    ("TAW", m_taw, "CD-TAW", m_cd),
):
    print(f"  {name_a:6s} vs {name_b:6s}: IOU {iou(a, b):.3f}  MMA {mma(a, b):.3f}")

# initial_model dispatches on the strategy kind and zeroes the PRE-TRAINED values
ps0, mask = initial_model(pre, "CD-TAW", r1, donor=donor)
print(f"\np(theta_0) via CD-TAW: sparsity {sparsity(ps0):.3f}, mask source {mask.source!r}")

# metamorphic check: CD-TAW never reads pretrained values
scaled = pre.copy()
for t in scaled.tensors:
    t.data = (t.data * 3.0).astype(np.float32)
print("CD-TAW mask unchanged when pretrained values are scaled:",
      cdtaw_mask(scaled, donor, r1) == m_cd)
