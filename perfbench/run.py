"""oscat benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload diamond --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --compare OLD NEW

A run measures one workload.  It starts several setup-only workers, then runs
the workload's fixed batch in fresh worker processes, one round after
another, until the next round would end after --seconds (at least one
round).  Setup time is the median over the setup-only workers.  Times are
reported at the reference host speed: each is scaled by a host-speed gauge
timed right after it (gauge.py); the raw times are in the result file.
With --trace 1 each cycle is one untraced round and two traced rounds:
per-layer metrics come from the traced rounds, tracing overhead is traced
minus untraced wall time, and count-type layer metrics must repeat exactly
between the two traced rounds.

The result file goes to perfbench/results/; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  `--compare` prints the
per-metric change between two result files (or directories of them), one
row per workload.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
from tracing import METRICS as LAYER_METRICS, REPEATABLE  # noqa: E402
from worker import MALLOC_VARS, THREAD_VARS  # noqa: E402

WORKLOADS = ("session_mix", "diamond", "tensor_search")
E2E = [("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
       ("peak_rss_mb", "MB"), ("width_rel_mean", "ratio"), ("loose_share", "ratio"),
       ("error_share", "ratio")]
PER_LAYER = LAYER_METRICS + [("trace.overhead_s", "s"), ("trace.spans", "count")]
SETUP_SAMPLES = 9
BLAS_THREADS = "1"  # at most nproc; one thread keeps small dense kernels steady
RUN_LIMIT_S = 170.0  # a worker still busy this long after the run started is killed


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in THREAD_VARS})
    env.update(MALLOC_VARS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, mode, deadline, spans=None):
    """Start one worker; returns (setup seconds, result dict).

    A setup worker's result is {"gauge_s": its `mix` gauge time}.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    # a worker still running at the deadline is killed; its pipe then ends
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY":
        raise RuntimeError(f"{mode} worker did not get ready")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    last = out.strip().splitlines()[-1]
    if mode == "setup":
        return setup, {"gauge_s": float(last.split()[1])}
    return setup, json.loads(last)


def measure(workload, seed, seconds, trace):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    cycle = ("run", "trace", "trace") if trace else ("run",)
    rounds = []
    spans = RESULTS / f"{workload}-seed{seed}.spans.jsonl.gz" if trace else None
    while True:
        t_cycle = time.perf_counter()
        for mode in cycle:
            _, res = spawn(workload, seed, mode, deadline, spans if mode == "trace" else None)
            rounds.append(res)
        now = time.perf_counter()
        if now - start + (now - t_cycle) > seconds:
            break
    return setups, rounds


def ref_wall(r) -> float:
    """A round's wall time at the reference host speed."""
    return sum(r["ref_lat_ms"]) / 1e3


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def summarize(workload, seed, seconds, trace, setups, rounds):
    plain = [r for r in rounds if r["mode"] == "run"]
    traced = [r for r in rounds if r["mode"] == "trace"]
    batch = plain[0]["attempted"]
    # an item fails a round when a check failed; it fails the run when it
    # failed any round or its report bytes differ between rounds
    failed_runs = sum(len(r["errors"]) for r in rounds)
    bad_items = {int(i) for r in rounds for i in r["errors"]}
    if plain[0]["digests"] is not None:
        for i in range(batch):
            if len({r["digests"][i] for r in rounds} - {None}) > 1:
                bad_items.add(i)
                failed_runs += 1
    lat = [x for r in plain for x in r["ref_lat_ms"]]
    raw_lat = [x for r in plain for x in r["lat_ms"]]
    ref_setups = [t * gauge.factor("mix", res["gauge_s"]) for t, res in setups]
    e2e = {
        "setup_s": statistics.median(ref_setups),
        "wall_s": statistics.median(ref_wall(r) for r in plain),
        "item_p50_ms": statistics.median(lat),
        "item_p90_ms": p90(lat),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        # widths below the certified resolution count as the resolution, and
        # shares are add-one estimates, so no metric reads 0
        "width_rel_mean": statistics.median(
            r["width_floored_sum"] / max(r["norms"], 1) for r in plain),
        "loose_share": statistics.median((r["loose"] + 1) / (r["norms"] + 1) for r in plain),
        "error_share": (len(bad_items) + 1) / (batch + 1),
    }
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": plain[0]["env"],
        "e2e": {name: {"value": e2e[name], "unit": unit} for name, unit in E2E},
        "raw": {"setup_s": statistics.median(t for t, _ in setups),
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "item_p50_ms": statistics.median(raw_lat),
                "item_p90_ms": p90(raw_lat)},
        "samples": {"setup": len(setups), "rounds": len(plain), "items": len(lat),
                    "traced_rounds": len(traced)},
        "rounds": [{"mode": r["mode"], "wall_s": r["wall_s"], "ref_wall_s": ref_wall(r),
                    "rss_mb": r["rss_mb"], "errors": len(r["errors"]), "spans": r["spans"]}
                   for r in rounds],
        "setup_samples_s": [t for t, _ in setups],
        "setup_gauge_s": [res["gauge_s"] for _, res in setups],
        "round_lat_ms": [r["lat_ms"] for r in plain],
        "round_gauge_ms": [r["gauge_ms"] for r in plain],
        "item_gauges": plain[0]["gauges"],
        "errors": [{"item": int(i), "kind": r["kinds"][int(i)], "why": why}
                   for r in rounds for i, why in r["errors"].items()][:20],
    }
    correct = not bad_items
    if trace:
        layers = dict(traced[0]["layers"])
        for name, unit in LAYER_METRICS:
            if unit == "s":
                layers[name] = statistics.median(r["layers"][name] for r in traced)
        repeat = all(r["layers"][n] == traced[0]["layers"][n] for r in traced for n in REPEATABLE)
        layers["trace.overhead_s"] = (statistics.median(ref_wall(r) for r in traced)
                                      - e2e["wall_s"])
        layers["trace.spans"] = traced[0]["spans"]
        doc["layers"] = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        doc["counts_repeat"] = repeat
        if not repeat:
            print("count-type layer metrics differ between traced rounds", file=sys.stderr)
        correct = correct and repeat
    doc["correct"] = correct
    line = {"correct": correct, "attempted": batch * len(rounds), "failed": failed_runs,
            "metrics": doc["layers"] if trace else doc["e2e"]}
    return doc, line


# ---------------------------------------------------------------------------
# compare mode

def _load(path: Path):
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for f in files:
        doc = json.loads(f.read_text())
        if "workload" in doc and "e2e" in doc:
            docs.append(doc)
    return docs


def _medians(docs, section):
    out = {}
    for doc in docs:
        for name, m in doc.get(section, {}).items():
            out.setdefault((doc["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in out.items()}


def compare(old: Path, new: Path) -> int:
    """Median change per metric, one row per workload; '!' marks a change past the bound."""
    bench = ROOT / "BENCHMARK.json"
    spec = {m["name"]: m for m in json.loads(bench.read_text())["end_to_end"]} \
        if bench.is_file() else {}
    old_docs, new_docs = _load(old), _load(new)
    if not old_docs or not new_docs:
        print("no result files to compare", file=sys.stderr)
        return 2
    for section, names in (("e2e", [n for n, _ in E2E]), ("layers", [n for n, _ in PER_LAYER])):
        a, b = _medians(old_docs, section), _medians(new_docs, section)
        rows = [w for w in WORKLOADS if any((w, n) in a and (w, n) in b for n in names)]
        cols = [n for n in names if any((w, n) in a and (w, n) in b for w in rows)]
        for chunk in range(0, len(cols), 6):
            part = cols[chunk:chunk + 6]
            width = max(len(n) for n in part) + 2
            print(f"\n{section}: change of the median, new vs old")
            print("workload".ljust(14) + "".join(n.rjust(width) for n in part))
            for w in rows:
                cells = []
                for n in part:
                    x, y = a.get((w, n)), b.get((w, n))
                    if x is None or y is None:
                        cells.append("-")
                    elif x == 0:
                        cells.append("same" if y == 0 else f"0->{y:.3g}")
                    else:
                        delta = y / x - 1.0
                        s = spec.get(n)
                        worse = s and (delta if s["better"] == "lower" else -delta) > s["bound"]
                        cells.append(f"{delta:+.2%}" + ("!" if worse else ""))
                print(w.ljust(14) + "".join(c.rjust(width) for c in cells))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "oscat" / "__init__.py").is_file():
        print(f"no oscat sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    setups, rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    doc, line = summarize(args.workload, args.seed, args.seconds, bool(args.trace),
                          setups, rounds)
    out = RESULTS / f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'plain'}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
