"""Pruning frequencies: once, iterative, dynamic-iterative.

Runs the full prune-and-fine-tune loop under the three frequencies and
prints each run's prune-event table, showing how sparsity decays between
events because zeroed weights keep training.
"""

from pada import (
    DomainShiftSpec,
    LARGE_RATE_PRESETS,
    ModelArch,
    PruneSchedule,
    TrainConfig,
    gen_domain_shift,
    pretrain_denoising,
    run_dft,
    run_pada,
)

task = gen_domain_shift(7, DomainShiftSpec())
arch = ModelArch(input_dim=16, hidden=(32, 32), num_classes=6, activation="tanh")
pre = pretrain_denoising(arch, task.source_unlabeled,
                         TrainConfig(lr=0.05, batch=32, updates=3000, seed=101, denoise_std=0.3))

n_total, interval = 2000, 500
tcfg = TrainConfig(lr=0.05, batch=16, updates=n_total, seed=0)

_, dft_log = run_dft(pre, task.target_labeled, tcfg, eval_data=task.target_eval)
print(f"DFT baseline: no prune events, target error {dft_log.final['error_rate']:.4f}")

for freq, rates in LARGE_RATE_PRESETS.items():
    # the schedule plans only pruning; every run trains tcfg.updates = N updates
    sched = PruneSchedule(freq, rates, interval)
    # the TAG initial mask prunes at the schedule's first rate
    _, log = run_pada(pre, "TAG", sched, task.target_labeled, tcfg, eval_data=task.target_eval)
    print(f"\n{freq} (rates {rates}): target error {log.final['error_rate']:.4f}")
    print("  update  rate   sparsity before -> after   train loss")
    for ev in log.events:
        print(f"  {ev.update:6d}  {ev.rate:4.0f}   {ev.sparsity_before:.3f} -> {ev.sparsity_after:.3f}"
              f"          {ev.train_loss:.4f}")
    print(f"  final sparsity after {n_total} updates: {log.final['final_sparsity']:.3f}")
