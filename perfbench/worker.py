"""One round of a workload in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace

Imports oscat from the checkout's src/, builds the seeded batch, prints
READY, then (unless --mode setup) runs every item once, closed loop, timing
each one and then, outside the item's time, the item's host-speed gauge
(gauge.py).  A setup worker times the `mix` gauge after READY and prints it
as `GAUGE <seconds>`.  Answer checks run after the timed loop.  The last
stdout line is one JSON object with the round's raw measurements.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# glibc malloc raises its mmap threshold the first time it frees a large
# mmapped block, after which large arrays come from the heap without page
# faults.  When that happens depends on the item order, which made the n = 3
# general SDPs 25% slower in some seeds than in others.  Workers fix both
# thresholds at the values the dynamic rule reaches at its cap.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
RERUN_EVERY = 10  # session_mix: rerun every tenth session to check byte-identity


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc_env": {v: os.environ.get(v) for v in MALLOC_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None, help="write the traced round's spans here")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import oscat

    if Path(oscat.__file__).resolve().parent != ROOT / "src" / "oscat":
        print(f"imported oscat from {oscat.__file__}, not this checkout", file=sys.stderr)
        return 2
    import gauge
    import tracing
    import workloads

    batch = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        print(f"GAUGE {gauge.measure('mix')!r}")
        return 0

    rec = None
    if args.mode == "trace":
        rec = tracing.Recorder()
        tracing.install(rec)
        workloads.probe(args.seed)
    clock = time.perf_counter
    outs, raised, lat, gauges = [], {}, [], []
    cpu = gauge.pin_here()
    gauges_now = gauge.Gauges()
    try:
        for name in {item.gauge for item in batch.items}:
            gauges_now.measure(name)  # start and warm the gauges before timing
        for i, item in enumerate(batch.items):
            if rec is not None:
                rec.item = i
            ts = clock()
            try:
                out = item.run()
            except Exception as exc:  # counted as an error, the loop goes on
                traceback.print_exc()
                out, raised[i] = None, f"{type(exc).__name__}: {exc}"
            lat.append(clock() - ts)
            outs.append(out)
            gauges.append(gauges_now.measure(item.gauge))
    finally:
        gauges_now.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers, span_count = None, 0
    if rec is not None:
        rec.item = None
        layers = tracing.layer_metrics(rec)
        span_count = len(rec.spans)
        if args.spans:
            tracing.write_spans(rec, args.spans)

    # -- answer checks, outside the timed region
    errors = {i: [why] for i, why in raised.items()}
    widths, loose = [], 0
    for i, (item, out) in enumerate(zip(batch.items, outs)):
        if out is None:
            continue
        errs, brackets = item.check(out)
        if errs:
            errors.setdefault(i, []).extend(errs)
        for lo, hi, status in brackets:
            w = tracing.rel_width(lo, hi, status)
            widths.append(w)
            loose += w > workloads.EXACT_REL
    for i, why in batch.cross_check(outs):
        errors.setdefault(i, []).append(why)
    digests = None
    if batch.digest is not None:
        digests = [batch.digest(out) if out is not None else None for out in outs]
        for i in range(0, len(outs), RERUN_EVERY):
            if outs[i] is not None and batch.digest(batch.items[i].run()) != digests[i]:
                errors.setdefault(i, []).append("report differs on a rerun in the same process")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "wall_s": sum(lat),
        "lat_ms": [x * 1e3 for x in lat],
        "gauge_ms": [x * 1e3 for x in gauges],
        "ref_lat_ms": [x * 1e3 * gauge.factor(item.gauge, g)
                       for x, item, g in zip(lat, batch.items, gauges)],
        "kinds": [item.kind for item in batch.items],
        "gauges": [item.gauge for item in batch.items],
        "rss_mb": rss_mb,
        "attempted": len(batch.items),
        "errors": {str(i): why for i, why in sorted(errors.items())},
        "norms": len(widths),
        "loose": loose,
        "width_floored_sum": sum(max(w, workloads.EXACT_REL) for w in widths),
        "digests": digests,
        "layers": layers,
        "spans": span_count,
        "env": dict(environment(args.seed), cpu=cpu),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
