"""Workloads, correctness gate and end-to-end metrics of the pada benchmark.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations are the CLI subcommands
(``pretrain``, ``make-donor``, ``run``, ``compare-masks``, ``report``, called
in-process through ``pada.cli.main``) and a mask-drift analysis built from
the library calls a user would make.  Each operation's outputs are checked
against values recorded for the same inputs in ``expected.json``; an
exception, a non-zero exit code or a wrong output counts the operation as
failed.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import defaultdict
from itertools import combinations
from pathlib import Path

import numpy as np

from pada import cli, config, metrics, params, pruning
from tracer import Tracer

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# A workload seed selects one of this many input variants (task seed and
# experiment seeds); expected.json holds the recorded outputs of each.
N_VARIANTS = 4

# End-to-end metrics of an untraced run, in print order: (name, unit).  The
# JSON result and BENCHMARK.json carry these.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pretrain_s", "s"),
    ("make_donor_s", "s"),
    ("run_s", "s"),
    ("updates_per_s", "1/s"),
    ("drift_ms_p75", "ms"),
    ("drift_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
]

# Printed beside them but not gated (README.md, "Run-to-run spread").  The
# medians jump between the host's speed steps from run to run, while the
# upper quartile stays in the slower, steadier step.  compare-masks and
# report are mostly small file writes and reads, whose time follows the
# host's file-system load for minutes at a time, whatever the statistic.
UNGATED = [
    ("analysis_ops_per_s", "1/s"),
    ("drift_ms_p50", "ms"),
    ("compare_ms_p50", "ms"),
    ("compare_ms_p75", "ms"),
    ("compare_ms_p90", "ms"),
    ("report_ms_p50", "ms"),
    ("report_ms_p75", "ms"),
]

# The correctness gate calls these untraced originals, bound before any
# tracer rebinds the module attributes.
_iou_counts = metrics.iou_counts
_mma_counts = metrics.mma_counts
_load_mask = pruning.load_mask


@dataclasses.dataclass(frozen=True)
class Workload:
    """One loop iteration runs the grid, then ``rounds`` analysis rounds.

    The rounds read the iteration's own output, or with ``read_seeds`` a
    larger run directory that set-up builds: ``read_seeds`` seeds fine-tuned
    for ``read_updates`` updates per cell.
    """

    name: str
    hidden: tuple[int, ...]
    pretrain_updates: int
    donor_updates: int
    total_updates: int
    interval: int
    n_seeds: int
    rounds: int  # analysis rounds (drift + compare + report) per loop iteration
    builds: int  # set-up repetitions before the loop; setup_s is their median
    read_seeds: int = 0
    read_updates: int = 0

    def smoke(self) -> "Workload":
        """The same workload at tiny sizes, for the smoke test."""
        return dataclasses.replace(
            self,
            pretrain_updates=20,
            donor_updates=20,
            total_updates=8,
            interval=2,
            n_seeds=min(self.n_seeds, 2),
            rounds=min(self.rounds, 3),
            builds=min(self.builds, 2),
            read_seeds=min(self.read_seeds, 2),
            read_updates=min(self.read_updates, 8),
        )


WORKLOADS = {
    "grid-tiny": Workload("grid-tiny", (32, 32), 300, 300, 200, 50, 1, 4, 5),
    "grid-wide": Workload("grid-wide", (256, 256), 100, 100, 40, 10, 1, 4, 3),
    # set-up builds the 10-seed directory the rounds read; the loop's 1-seed
    # grid spreads the subcommand samples over the run, as on the grids
    "mask-analysis": Workload("mask-analysis", (32, 32), 300, 300, 200, 50, 1, 30, 3, 10, 20),
}


def experiment_doc(w: Workload, variant: int, out: Path) -> dict:
    """The default experiment config, resized for ``w`` and seeded by ``variant``."""
    doc = config.default_config()
    doc["task"]["seed"] = 7 + variant
    doc["arch"]["hidden"] = list(w.hidden)
    doc["pretrain"]["updates"] = w.pretrain_updates
    doc["donor"]["updates"] = w.donor_updates
    doc["schedule"]["total_updates"] = w.total_updates
    doc["schedule"]["interval"] = w.interval
    doc["seeds"] = [variant * w.n_seeds + i for i in range(w.n_seeds)]
    doc["out"] = str(out)
    return doc


def read_experiment_doc(w: Workload, variant: int, out: Path) -> dict:
    """The config of the run directory that set-up builds for ``w.read_seeds``."""
    doc = experiment_doc(w, variant, out)
    doc["schedule"]["total_updates"] = w.read_updates
    doc["schedule"]["interval"] = w.read_updates // 4
    doc["seeds"] = [variant * w.read_seeds + i for i in range(w.read_seeds)]
    return doc


def nominal_updates(doc: dict) -> int:
    """SGD updates the config asks for; TAW's throwaway fine-tune is not counted."""
    cells = int(doc["include_dft"]) + len(doc["strategies"]) * len(doc["frequencies"])
    return (
        doc["pretrain"]["updates"]
        + doc["donor"]["updates"]
        + cells * len(doc["seeds"]) * doc["schedule"]["total_updates"]
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pada_cli(*argv: str) -> None:
    """Run one pada subcommand in-process; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(err.getvalue().strip() or f"exit code {code}")


class Recorder:
    """Times operations, counts failures and checks outputs against expected.json."""

    def __init__(self, expected: dict, recording: bool = False):
        self.expected = expected
        self.recording = recording
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, kind: str, call, check=None) -> float:
        """Time ``call()``, then check its result; returns the seconds ``call()`` took.

        A failed operation's time still counts in the iteration wall time, but
        not in the per-operation samples.
        """
        self.attempted += 1
        problem = None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # any failure of the program counts, then the loop goes on
            problem = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if problem is None and check is not None:
            try:
                problem = check(result)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{kind}: {problem}")
        else:
            self.times[kind].append(dt)
        return dt

    def expect(self, section: str, key: str, value) -> str | None:
        table = self.expected.setdefault(section, {})
        if self.recording:
            if key in table and table[key] != value:
                return f"{section} {key}: differs between two runs of the same input"
            table[key] = value
            return None
        if key not in table:
            return f"no recorded {section} value for {key}"
        if table[key] != value:
            return f"{section} {key}: {value!r} != recorded {table[key]!r}"
        return None


def _table_matches_logs(out: Path) -> str | None:
    """Every table.csv cell equals the final error_rate in its run's .jsonl."""
    lines = (out / "table.csv").read_text(encoding="utf-8").splitlines()
    seeds = [int(h[len("seed_") :]) for h in lines[0].split(",")[3:]]
    for line in lines[1:]:
        strategy, freq, _, *errors = line.split(",")
        for seed, err in zip(seeds, errors):
            name = f"dft_seed{seed}" if strategy == "DFT" else f"{strategy.lower()}_{freq}_seed{seed}"
            log = (out / "runs" / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
            final = json.loads(log[-1])
            if final.get("kind") != "final" or final.get("error_rate") != float(err):
                return f"table.csv cell of {name} ({err}) != its log's final error_rate"
    return None


class Bench:
    """One workload at one input variant, run inside a scratch directory."""

    def __init__(self, w: Workload, variant: int, work: Path, rec: Recorder):
        self.w, self.variant, self.work, self.rec = w, variant, work, rec
        self.doc = experiment_doc(w, variant, work / "run")
        self.cfg_path = work / "experiment.json"
        self.run_out = Path(self.doc["out"])
        # the run directory the analysis rounds read
        if w.read_seeds:
            self.read_doc = read_experiment_doc(w, variant, work / "read")
            self.read_cfg_path = work / "read.json"
        else:
            self.read_doc, self.read_cfg_path = self.doc, self.cfg_path
        self.read_out = Path(self.read_doc["out"])
        seeds, strategies, freqs = self.read_doc["seeds"], self.read_doc["strategies"], self.read_doc["frequencies"]
        self.cells = [f"{s.lower()}_{f}_seed{seed}" for seed in seeds for s in strategies for f in freqs]
        self.pairs = [
            (f"{a.lower()}_{f}_seed{seed}", f"{b.lower()}_{f}_seed{seed}")
            for seed in seeds
            for f in freqs
            for a, b in combinations(strategies, 2)
        ]
        rates = {r for rs in self.read_doc["schedule"]["rates"].values() for r in rs}
        self.rates = sorted(rates, reverse=True)
        self.round_index = 0

    # -- checks -----------------------------------------------------------

    def _check_files(self, kind: str, out: Path, key: str) -> str | None:
        if kind == "pretrain":
            names = ["pretrained.pada"]
        elif kind == "make-donor":
            names = ["donor.pada"]
        else:
            names = ["table.csv"] + sorted(
                f"runs/{f}" for f in os.listdir(out / "runs") if f.endswith((".pada", ".padm"))
            )
        manifest = "".join(f"{n} {sha256(out / n)}\n" for n in names)
        digest = {"n_files": len(names), "sha256": hashlib.sha256(manifest.encode()).hexdigest()}
        problem = self.rec.expect("files", key, digest)
        if problem is None and kind == "run":
            problem = _table_matches_logs(out)
        return problem

    def _mask_counts(self, a, b) -> list[int]:
        return [*_iou_counts(a, b), *_mma_counts(a, b)]

    def _check_drift(self, cell: str, result) -> str | None:
        initial, masks, reports = result
        counts = [self._mask_counts(initial, m) for m in masks]
        problem = self.rec.expect("drift", cell, counts)
        if problem:
            return problem
        for (inter, union, agree, total), rep in zip(counts, reports):
            if rep.global_iou != (inter / union if union else 1.0) or rep.global_mma != agree / total:
                return f"drift {cell}: report disagrees with the exact counts"
        return None

    def _check_compare(self, a: str, b: str, out: Path) -> str | None:
        runs = self.read_out / "runs"
        counts = self._mask_counts(_load_mask(runs / f"{a}.padm"), _load_mask(runs / f"{b}.padm"))
        problem = self.rec.expect("compare", f"{a}|{b}", counts)
        if problem:
            return problem
        inter, union, agree, total = counts
        glob = json.loads((out / "mask_report.json").read_text(encoding="utf-8"))["global"]
        if glob["iou"] != (inter / union if union else 1.0) or glob["mma"] != agree / total:
            return f"compare {a}|{b}: mask_report.json disagrees with the exact counts"
        return None

    def _check_report(self, out: Path) -> str | None:
        digests = {n: sha256(out / n) for n in ("events.csv", "summary.json")}
        return self.rec.expect("report", "files", digests)

    # -- operations -------------------------------------------------------

    def pipeline(self, cfg_path: Path, out: Path, check: bool = True, prefix: str = "") -> float:
        """pretrain -> make-donor -> run into a fresh directory; returns seconds spent.

        Operations are recorded as ``prefix + kind``, or as ``warmup`` and
        unchecked when ``check`` is false.
        """
        shutil.rmtree(out, ignore_errors=True)
        spent = 0.0
        for kind in ("pretrain", "make-donor", "run"):
            key = prefix + kind
            spent += self.rec.op(
                key if check else "warmup",
                lambda: pada_cli(kind, "--config", str(cfg_path)),
                (lambda _, kind=kind, key=key: self._check_files(kind, out, key)) if check else None,
            )
        return spent

    def drift(self, cell: str):
        """Re-rank an adapted model at every schedule rate against its initial mask."""
        runs = self.read_out / "runs"
        adapted = params.load_checkpoint(runs / f"{cell}.pada")
        initial = pruning.load_mask(runs / f"{cell}.padm")
        masks = [pruning.compute_ump_mask(adapted, r) for r in self.rates]
        return initial, masks, [metrics.layerwise_report(initial, m) for m in masks]

    def analysis_round(self) -> float:
        """One drift op, one compare-masks op and one report op; returns seconds spent."""
        i = self.round_index
        self.round_index += 1
        cell = self.cells[i % len(self.cells)]
        a, b = self.pairs[i % len(self.pairs)]
        runs = self.read_out / "runs"
        cmp_out, rep_out = self.work / "compare", self.work / "report"
        for stale in (cmp_out / "mask_report.json", rep_out / "events.csv", rep_out / "summary.json"):
            stale.unlink(missing_ok=True)
        spent = self.rec.op("drift", lambda: self.drift(cell), lambda r: self._check_drift(cell, r))
        spent += self.rec.op(
            "compare",
            lambda: pada_cli("compare-masks", str(runs / f"{a}.padm"), str(runs / f"{b}.padm"),
                             "--out", str(cmp_out), "--force"),
            lambda _: self._check_compare(a, b, cmp_out),
        )
        spent += self.rec.op(
            "report",
            lambda: pada_cli("report", str(self.read_out), "--out", str(rep_out)),
            lambda _: self._check_report(rep_out),
        )
        return spent

    def setup(self) -> float:
        """One set-up repetition: write the experiment config, warm up with a
        tiny grid of the same architecture and build the run directory the
        analysis rounds read, if that is not the loop's own; returns its seconds."""
        t0 = time.perf_counter()
        self.cfg_path.write_text(json.dumps(self.doc), encoding="utf-8")
        written = time.perf_counter() - t0
        warm_out = self.work / "warmup"
        warm_doc = experiment_doc(self.w.smoke(), self.variant, warm_out)
        warm_cfg = self.work / "warmup.json"
        t0 = time.perf_counter()
        warm_cfg.write_text(json.dumps(warm_doc), encoding="utf-8")
        written += time.perf_counter() - t0
        spent = written + self.pipeline(warm_cfg, warm_out, check=False)
        if self.read_doc is not self.doc:
            t0 = time.perf_counter()
            self.read_cfg_path.write_text(json.dumps(self.read_doc), encoding="utf-8")
            spent += time.perf_counter() - t0
            spent += self.pipeline(self.read_cfg_path, self.read_out, prefix="read:")
        return spent

    def iteration(self) -> float:
        """One loop iteration; returns the seconds its operations took."""
        spent = self.pipeline(self.cfg_path, self.run_out)
        for _ in range(self.w.rounds):
            spent += self.analysis_round()
        return spent


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _p75(xs) -> float:
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=4, method="inclusive")[2]


def _p90(xs) -> float:
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end_metrics(rec: Recorder, doc: dict, setup_times, walls) -> dict:
    t = rec.times
    sub = _p75(t["pretrain"]) + _p75(t["make-donor"]) + _p75(t["run"])
    round_s = _p75(t["drift"]) + _p75(t["compare"]) + _p75(t["report"])
    values = {
        "setup_s": _median(setup_times),
        "wall_s": _p75(walls),
        "pretrain_s": _p75(t["pretrain"]),
        "make_donor_s": _p75(t["make-donor"]),
        "run_s": _p75(t["run"]),
        "updates_per_s": nominal_updates(doc) / sub if sub else 0.0,
        "analysis_ops_per_s": 3 / round_s if round_s else 0.0,
        "drift_ms_p50": _median(t["drift"]) * 1e3,
        "drift_ms_p75": _p75(t["drift"]) * 1e3,
        "drift_ms_p90": _p90(t["drift"]) * 1e3,
        "compare_ms_p50": _median(t["compare"]) * 1e3,
        "compare_ms_p75": _p75(t["compare"]) * 1e3,
        "compare_ms_p90": _p90(t["compare"]) * 1e3,
        "report_ms_p50": _median(t["report"]) * 1e3,
        "report_ms_p75": _p75(t["report"]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(rec.failures) / rec.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END + UNGATED}


def environment(seed: int, variant: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "variant": variant,
    }


def _load_expected() -> dict:
    if EXPECTED_PATH.is_file():
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {}


def _profile(w: Workload, smoke: bool) -> str:
    return f"{w.name}:smoke" if smoke else w.name


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Run one workload and print its metrics; the last stdout line is the JSON result."""
    w = WORKLOADS[workload].smoke() if smoke else WORKLOADS[workload]
    variant = seed % N_VARIANTS
    expected = _load_expected().get(_profile(w, smoke), {}).get(str(variant), {})
    rec = Recorder(expected)
    work = root / ".bench_work" / f"{w.name}-{os.getpid()}"
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}"
    try:
        work.mkdir(parents=True)
        bench = Bench(w, variant, work, rec)
        setup_times = [bench.setup() for _ in range(w.builds)]
        tracer = Tracer(w.name) if trace else None
        walls: dict[bool, list[float]] = {False: [], True: []}
        min_iterations = 2 if trace else 1
        i = 0
        start = time.perf_counter()
        last = 0.0
        # start another iteration while its expected midpoint is before the deadline
        while i < min_iterations or time.perf_counter() - start + last / 2 < seconds:
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.iteration = i
                tracer.install()
            t0 = time.perf_counter()
            try:
                walls[traced].append(bench.iteration())
            finally:
                if traced:
                    tracer.uninstall()
            last = time.perf_counter() - t0
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        untraced, traced_walls = _median(walls[False]), _median(walls[True])
        shown = tracer.layer_metrics(len(walls[True]), traced_walls, untraced)
        tracer.write_csv(str(results_dir / f"{tag}.spans.csv"))
    else:
        shown = end_to_end_metrics(rec, bench.doc, setup_times, walls[False])
    result_metrics = {k: v for k, v in shown.items() if k not in dict(UNGATED)}

    failed = len(rec.failures)
    env = environment(seed, variant)
    samples = {kind: len(v) for kind, v in sorted(rec.times.items())}
    report = {
        "workload": w.name,
        "smoke": smoke,
        "trace": int(trace),
        "environment": env,
        "iterations": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "samples": samples,
        "times_s": dict(rec.times),
        "setup_times_s": setup_times,
        "iteration_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "attempted": rec.attempted,
        "failed": failed,
        "failed_frac": failed / rec.attempted,
        "failures": rec.failures[:20],
        "metrics": shown,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {w.name}  seed {seed} (variant {variant})  trace {int(trace)}")
    print("environment " + json.dumps(env))
    print("samples " + json.dumps(samples))
    for name, m in shown.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<34} {failed / rec.attempted:.6g} fraction ({failed} of {rec.attempted} operations)")
    for line in rec.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def record(root: Path) -> None:
    """Write expected.json: the outputs of every workload and variant at this commit."""
    expected: dict = {}
    for w in WORKLOADS.values():
        for smoke in (False, True):
            ws = w.smoke() if smoke else w
            for variant in range(N_VARIANTS):
                rec = Recorder({}, recording=True)
                work = root / ".bench_work" / f"record-{ws.name}-{os.getpid()}"
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                try:
                    bench = Bench(ws, variant, work, rec)
                    bench.setup()
                    bench.pipeline(bench.cfg_path, bench.run_out)
                    for _ in range(max(len(bench.cells), len(bench.pairs))):
                        bench.analysis_round()
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                if rec.failures:
                    raise RuntimeError(f"{_profile(ws, smoke)} variant {variant}: {rec.failures[0]}")
                expected.setdefault(_profile(ws, smoke), {})[str(variant)] = rec.expected
                print(f"recorded {_profile(ws, smoke)} variant {variant}", flush=True)
    # one line per workload variant keeps the file small and its diffs readable
    lines = []
    for profile, variants in sorted(expected.items()):
        body = ",\n".join(
            f"  {json.dumps(v)}: {json.dumps(d, sort_keys=True, separators=(',', ':'))}"
            for v, d in sorted(variants.items())
        )
        lines.append(f" {json.dumps(profile)}: {{\n{body}\n }}")
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
