#!/usr/bin/env python3
"""Benchmark of metaplan training and oracle search over meta-action spaces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the program is imported from ``src/``.
The run writes its seeded inputs under ``perfbench/out/``, sets the program
up ``SETUP_REPS`` times, then repeats identical rounds of work until
``--seconds`` have passed, checks the outputs, and prints one JSON object as
its last line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
All times are corrected for host speed (see ``hostclock.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5

PER_LAYER = {
    # metric: (span or count it comes from, unit)
    "cli.load_s": ("cli.load", "s"),
    "pddl.parse_s": ("pddl.parse", "s"),
    "grounding.ground_s": ("grounding.ground", "s"),
    "grounding.operators": ("grounding.operators", "count"),
    "grounding.facts": ("grounding.facts", "count"),
    "meta_ops.conflict_build_s": ("meta_ops.conflict_build", "s"),
    "meta_ops.conflict_build_calls": ("meta_ops.conflict_build_calls",
                                      "count"),
    "meta_ops.conflict_pairs": ("meta_ops.conflict_pairs", "count"),
    "meta_ops.enumerate_s": ("meta_ops.enumerate", "s"),
    "meta_ops.enumerate_calls": ("meta_ops.enumerate_calls", "count"),
    "meta_ops.actions_enumerated": ("meta_ops.actions_enumerated", "count"),
    "meta_ops.actions_deg1": ("meta_ops.actions_deg1", "count"),
    "meta_ops.actions_deg2": ("meta_ops.actions_deg2", "count"),
    "meta_ops.actions_deg3": ("meta_ops.actions_deg3", "count"),
    "env.rollout_s": ("env.rollout", "s"),
    "env.step_s": ("env.step", "s"),
    "env.episodes": ("env.episodes", "count"),
    "env.steps": ("env.steps", "count"),
    "policy.featurize_s": ("policy.featurize", "s"),
    "policy.featurize_calls": ("policy.featurize_calls", "count"),
    "policy.featurize_rows": ("policy.featurize_rows", "count"),
    "policy.update_s": ("policy.update", "s"),
    "policy.surrogate_s": ("policy.surrogate", "s"),
    "policy.surrogate_calls": ("policy.surrogate_calls", "count"),
    "evalkit.run_policy_s": ("evalkit.run_policy", "s"),
    "evalkit.bfs_s": ("evalkit.bfs", "s"),
    "evalkit.bfs_expanded": ("evalkit.bfs_expanded", "count"),
    "evalkit.bfs_generated": ("evalkit.bfs_generated", "count"),
    "runtime.gc_s": ("runtime.gc", "s"),
    "runtime.gc_gen2": ("runtime.gc_gen2", "count"),
}
# Derived in per_layer_metrics().
DERIVED = {"meta_ops.scan_ratio": "ratio",
           "meta_ops.enumerate_per_state": "ratio",
           "host.ref_s": "s", "trace.overhead_s": "s",
           "trace.remainder_s": "s", "trace.covered_share": "ratio"}


class HookLost(Exception):
    """A round made fewer reference-loop calls than it has work units."""


def import_program():
    """Import metaplan from this tree's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import metaplan
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import metaplan from {src}: "
                         f"{err}")
    package = Path(metaplan.__file__).resolve().parent
    if package != (src / "metaplan").resolve():
        raise SystemExit(f"perfbench: metaplan imported from "
                         f"{metaplan.__file__}, not from {src}")


def host_info() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def measure(workload, seconds: float, trace: bool) -> dict:
    from hostclock import HostClock
    from tracing import Hooks, Tracer

    clock = HostClock()
    hooks = Hooks(clock)
    tracer = Tracer() if trace else None

    def instrument(traced: bool | None) -> None:
        """Untraced hooks only, hooks over spans, or nothing (None)."""
        hooks.undo()
        clock.listener = None
        if tracer is not None:
            tracer.undo()
        if traced:
            tracer.install()
            clock.listener = tracer
        if traced is not None:
            hooks.install()

    instrument(trace)
    setup_s = []
    for _ in range(SETUP_REPS):
        workload.reset()
        gc.collect()
        clock.start()
        workload.setup()
        setup_s.append(clock.stop())
    setup_layers = tracer.take() if tracer else None

    rounds = []
    signature = output = None
    failures: list[str] = []
    captured = hooks.captured = []
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        instrument(traced)
        states, units = hooks.states, clock.unit_marks
        output = None
        gc.collect()
        clock.start()
        output = workload.run_round(clock)
        work = clock.stop()
        marks = clock.unit_marks - units
        if marks < workload.marks_per_round():
            raise HookLost(f"{marks} marks for "
                           f"{workload.marks_per_round()} work units")
        rounds.append({"traced": traced, "work_s": work,
                       "raw_s": clock.raw_work,
                       "states": hooks.states - states})
        hooks.captured = None
        if signature is None:
            signature = workload.signature(output)
        elif workload.signature(output) != signature:
            failures.append(f"round {len(rounds)} differs from round 1")
        now = time.perf_counter()
        if now + (now - started) / len(rounds) > deadline and (
                not trace or len(rounds) > 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work_layers = tracer.take() if tracer else None
    instrument(None)

    check_failures, check_info = workload.check(output, captured)
    return {"setup_s": setup_s, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
            "refs": clock.refs, "failures": failures + check_failures,
            "checks": check_info, "setup_layers": setup_layers,
            "work_layers": work_layers}


def end_to_end_metrics(m: dict) -> dict:
    untraced = [r for r in m["rounds"] if not r["traced"]]
    return {
        "setup_s": (statistics.median(m["setup_s"]), "s"),
        "work_s": (statistics.median(r["work_s"] for r in untraced), "s"),
        "states_per_s": (statistics.median(r["states"] / r["work_s"]
                                           for r in untraced), "1/s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(m: dict) -> dict:
    """Each figure is per pass of the pipeline: one set-up plus one round."""
    (setup_t, setup_c), (work_t, work_c) = m["setup_layers"], m["work_layers"]
    traced = [r for r in m["rounds"] if r["traced"]]
    untraced = [r for r in m["rounds"] if not r["traced"]]
    n = len(traced)

    def per_pass(key: str) -> float:
        setup = setup_t.get(key, setup_c.get(key, 0))
        work = work_t.get(key, work_c.get(key, 0))
        return setup / SETUP_REPS + work / n

    out = {name: (per_pass(key), unit) for name, (key, unit) in
           PER_LAYER.items()}
    scanned = setup_c["meta_ops.ops_scanned"] + work_c["meta_ops.ops_scanned"]
    applicable = (setup_c["meta_ops.ops_applicable"]
                  + work_c["meta_ops.ops_applicable"])
    traced_work = statistics.median(r["work_s"] for r in traced)
    untraced_work = statistics.median(r["work_s"] for r in untraced)
    self_total = sum(work_t.values()) / n
    states = statistics.median(r["states"] for r in traced)
    out.update({
        "meta_ops.scan_ratio": (applicable / scanned if scanned else 0.0,
                                "ratio"),
        "meta_ops.enumerate_per_state": (
            work_c["meta_ops.enumerate_calls"] / n / states, "ratio"),
        "host.ref_s": (statistics.fmean(m["refs"]), "s"),
        "trace.overhead_s": (traced_work - untraced_work, "s"),
        "trace.remainder_s": (traced_work - self_total, "s"),
        "trace.covered_share": (self_total / untraced_work, "ratio"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    workload = WORKLOADS[args.workload]
    out = HERE / "out" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        out.mkdir(parents=True)
        workload.configure(args.seed, out)
        workload.write_inputs()
        m = measure(workload, args.seconds, bool(args.trace))
    except HookLost as err:
        print(f"perfbench: hook point lost: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out, ignore_errors=True)

    metrics = (per_layer_metrics(m) if args.trace else end_to_end_metrics(m))
    rounds = len(m["rounds"])
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_info(), "setup_s": m["setup_s"], "rounds": m["rounds"],
        "ref_median_s": statistics.median(m["refs"]),
        "ref_calls": len(m["refs"]), "checks": m["checks"],
        "failures": m["failures"]}))
    print(json.dumps({
        "correct": not m["failures"],
        "attempted": rounds * workload.operations_per_round(),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
