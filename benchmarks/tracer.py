"""Span tracer that measures pada's layers from outside the package.

The tracer wraps public functions of each layer (the modules of the ``pada``
package) at every module attribute that binds them, so calls made through
``from .trainer import sgd_train`` style imports are timed too.  Each call
records one span (function, start, end, parent span, iteration) in memory;
:meth:`Tracer.write_csv` writes them out once the run is over, and
:meth:`Tracer.layer_metrics` turns them into the per-layer metrics.

Self time is a span's duration minus the time its child spans cover.  Spans
nest strictly because pada is single-threaded, so the covered time is the sum
of the children's durations.
"""

from __future__ import annotations

import csv
import functools
import os
import statistics
import sys
import time
from collections import Counter

# layer (module pada.<layer>) -> public functions timed in that layer
TRACED = {
    "data": ("gen_domain_shift",),
    "trainer": (
        "loss_and_grads",
        "sgd_step",
        "sgd_train",
        "evaluate",
        "dataset_loss",
        "pretrain_denoising",
        "finetune_supervised",
    ),
    "strategies": ("tag_mask", "taw_mask", "cdtaw_mask", "initial_model"),
    "schedule": ("run_pada", "run_dft", "write_log_jsonl", "read_log_jsonl"),
    "pruning": ("compute_ump_mask", "apply_zeroing", "sparsity", "save_mask", "load_mask"),
    "params": ("save_checkpoint", "load_checkpoint", "write_container", "read_container"),
    "metrics": ("layerwise_report", "iou_counts", "mma_counts"),
    "config": ("load_config",),
    "cli": ("main", "cmd_pretrain", "cmd_make_donor", "cmd_run", "cmd_compare_masks", "cmd_report"),
}


def _count_bytes(key):
    def hook(counts, args, result):
        counts[key] += os.path.getsize(args[0])

    return hook


def _count_bits(counts, args, result):
    counts["metrics.bits_compared"] += args[0].total_bits


def _count_prune_events(counts, args, result):
    counts["schedule.prune_events"] += len(result[1].events)


# counters taken at the same boundaries as the spans: hook(counts, args, result)
HOOKS = {
    "params.write_container": _count_bytes("params.bytes_written"),
    "params.read_container": _count_bytes("params.bytes_read"),
    "metrics.layerwise_report": _count_bits,
    "schedule.run_pada": _count_prune_events,
}

# Per-layer metrics reported by a traced run: (name, unit, better).  Times and
# counts are per traced iteration; ``us_p50`` is the median call duration.
PER_LAYER = [
    ("trainer.updates", "count", "lower"),
    ("trainer.loss_and_grads.us_p50", "us", "lower"),
    ("trainer.loss_and_grads.self_s", "s", "lower"),
    ("trainer.sgd_step.us_p50", "us", "lower"),
    ("trainer.sgd_step.self_s", "s", "lower"),
    ("trainer.sgd_train.self_s", "s", "lower"),
    ("trainer.evaluate.s", "s", "lower"),
    ("trainer.dataset_loss.s", "s", "lower"),
    ("strategies.taw_mask.s", "s", "lower"),
    ("strategies.tag_mask.s", "s", "lower"),
    ("strategies.cdtaw_mask.s", "s", "lower"),
    ("strategies.taw_updates", "count", "lower"),
    ("cli.cmd_run.updates", "count", "lower"),
    ("strategies.wasted_update_share", "fraction", "lower"),
    ("schedule.run_pada.self_s", "s", "lower"),
    ("schedule.run_dft.self_s", "s", "lower"),
    ("schedule.prune_events", "count", "lower"),
    ("schedule.write_log_jsonl.s", "s", "lower"),
    ("pruning.compute_ump_mask.calls", "count", "lower"),
    ("pruning.compute_ump_mask.us_p50", "us", "lower"),
    ("pruning.apply_zeroing.s", "s", "lower"),
    ("pruning.sparsity.calls", "count", "lower"),
    ("pruning.sparsity.s", "s", "lower"),
    ("pruning.save_mask.s", "s", "lower"),
    ("pruning.load_mask.s", "s", "lower"),
    ("params.save_checkpoint.s", "s", "lower"),
    ("params.load_checkpoint.s", "s", "lower"),
    ("params.bytes_written", "bytes", "lower"),
    ("params.bytes_read", "bytes", "lower"),
    ("metrics.layerwise_report.us_p50", "us", "lower"),
    ("metrics.bits_compared", "count", "lower"),
    ("data.gen_domain_shift.calls", "count", "lower"),
    ("data.gen_domain_shift.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("cli.cmd_run.self_s", "s", "lower"),
    ("cli.cmd_report.s", "s", "lower"),
    ("cli.cmd_compare_masks.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
]


_WITHIN_BITS = {"strategies.taw_mask": 1, "cli.cmd_run": 2}


class Tracer:
    """Collects spans from wrapped pada functions while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = -1
        self.spans: list = []  # (name, start, end, parent index, iteration)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) for every binding of a traced function
        self._bindings = []
        modules = [m for n, m in list(sys.modules.items()) if n == "pada" or n.startswith("pada.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"pada.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.iteration)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every pada module to its wrapper."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "workload", "iteration"])
            for i, (name, t0, t1, parent, it) in enumerate(self.spans):
                out.writerow([i, name, repr(t0), repr(t1), parent, self.workload, it])

    def layer_metrics(self, n_iterations: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics, per traced iteration, from the recorded spans."""
        n = len(self.spans)
        child = [0.0] * n
        # bit 1: inside strategies.taw_mask, bit 2: inside cli.cmd_run
        within = [0] * n
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        durations: dict[str, list[float]] = {}
        # a parent span is always appended before its children
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                within[i] = within[parent]
            within[i] |= _WITHIN_BITS.get(name, 0)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            d = t1 - t0
            calls[name] += 1
            total[name] += d
            self_s[name] += d - child[i]
            durations.setdefault(name, []).append(d)
        steps = [w for (name, *_), w in zip(self.spans, within) if name == "trainer.sgd_step"]
        taw_updates = sum(w & 1 for w in steps)
        run_updates = sum(w >> 1 for w in steps)

        per = 1.0 / max(n_iterations, 1)

        def p50_us(name):
            ds = durations.get(name)
            return statistics.median(ds) * 1e6 if ds else 0.0

        values = {
            "trainer.updates": len(steps) * per,
            "strategies.taw_updates": taw_updates * per,
            "cli.cmd_run.updates": run_updates * per,
            "strategies.wasted_update_share": taw_updates / run_updates if run_updates else 0.0,
            "trace.spans": n * per,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        }
        for key in ("schedule.prune_events", "params.bytes_written", "params.bytes_read", "metrics.bits_compared"):
            values[key] = self.counts[key] * per
        for name, unit, _ in PER_LAYER:
            if name in values:
                continue
            fn, _, stat = name.rpartition(".")
            if stat == "us_p50":
                values[name] = p50_us(fn)
            elif stat == "calls":
                values[name] = calls[fn] * per
            elif stat == "self_s":
                values[name] = self_s[fn] * per
            elif stat == "s":
                values[name] = total[fn] * per
            else:
                raise KeyError(name)
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
