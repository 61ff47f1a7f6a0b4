"""Timed spans around oscat's public entry points, installed at run time.

`install(recorder)` wraps each function listed in LAYERS once and rebinds
every attribute of every loaded oscat module (or the class, for SuperOp
methods) that names it, so calls made from inside the package are recorded
too.  No source file is edited.

A span is [layer, function, start, end, parent span index, item index].
Spans stay in memory until the round ends.  A layer's self time is the sum
of its spans' durations minus the time covered by their child spans; all
layers run in one thread, so there is no waiting to report.
"""
from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time

# layer -> (home module, entry points); every entry point is in one layer
LAYERS = {
    "cli": ("oscat.cli", ("parse_session", "run_session", "emit_report")),
    "matcore": ("oscat.matcore",
                ("op_norm", "tr_norm", "herm_eig", "psd_check", "kron", "direct_sum")),
    "supop": ("oscat.supop",
              ("SuperOp.from_action", "SuperOp.apply", "SuperOp.adjoint", "SuperOp.compose",
               "SuperOp.tensor", "SuperOp.amplify", "SuperOp.big_choi", "SuperOp.classify")),
    "normlab.sdp": ("oscat.normlab.sdp", ("sdp_solve",)),
    "normlab.norms": ("oscat.normlab.diamond", ("diamond_norm", "cb_norm", "dual_level_norm")),
    "normlab.brackets": ("oscat.normlab.brackets",
                         ("haagerup_bracket_flat", "proj_bracket_flat", "inj_norm_flat")),
    "osx": ("oscat.osx", ("norm_at", "canonical_map", "parse_space")),
    "vnstruct.laws": ("oscat.vnstruct", ("check_laws",)),
    "vnstruct": ("oscat.vnstruct",
                 ("make_algebra", "make_coalgebra", "certify_morphism", "dualize", "positivity")),
    "qglue.qswitch": ("oscat.qglue", ("quantum_switch",)),
    "qglue": ("oscat.qglue", ("check_morphism", "membership", "polar", "connective")),
}

# Per-layer metrics in the order they are reported; the `count` ones must
# repeat exactly when the same seed runs twice.
METRICS = [
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.fails", "count"),
    ("matcore.calls", "count"), ("matcore.self_s", "s"),
    ("supop.calls", "count"), ("supop.self_s", "s"),
    ("normlab.sdp.calls", "count"), ("normlab.sdp.self_s", "s"),
    ("normlab.sdp.iterations", "count"), ("normlab.sdp.lmi_bytes", "B"),
    ("normlab.sdp.not_optimal", "count"), ("normlab.sdp.gap_rel_max", "ratio"),
    ("normlab.norms.calls", "count"), ("normlab.norms.self_s", "s"),
    ("normlab.brackets.calls", "count"), ("normlab.brackets.self_s", "s"),
    ("normlab.brackets.width_rel_mean", "ratio"),
    ("osx.calls", "count"), ("osx.self_s", "s"),
    ("vnstruct.calls", "count"), ("vnstruct.self_s", "s"),
    ("vnstruct.laws.calls", "count"), ("vnstruct.laws.self_s", "s"),
    ("qglue.calls", "count"), ("qglue.self_s", "s"),
    ("qglue.qswitch.calls", "count"), ("qglue.qswitch.self_s", "s"),
]
REPEATABLE = [name for name, unit in METRICS
              if unit in ("count", "B") or name.endswith(".width_rel_mean")]


def rel_width(lower, upper, status) -> float:
    """(upper − lower)/max(upper, 1e-12); an `unknown` bracket counts as 1."""
    if status == "unknown" or not math.isfinite(upper):
        return 1.0
    return (upper - lower) / max(upper, 1e-12)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.sdp_iterations = 0
        self.sdp_lmi_bytes = 0
        self.sdp_not_optimal = 0
        self.sdp_gap_rel_max = 0.0
        self.bracket_widths = []
        self.cli_fails = 0


def _after_sdp(rec, args, kwargs, out):
    problem = args[0] if args else kwargs["p"]
    rec.sdp_lmi_bytes += sum(f.nbytes for f in problem.fs)
    rec.sdp_iterations += int(out.iterations)
    if out.status != "optimal":
        rec.sdp_not_optimal += 1
    gap_rel = out.gap / (1.0 + abs(out.value))
    if math.isfinite(gap_rel):
        rec.sdp_gap_rel_max = max(rec.sdp_gap_rel_max, gap_rel)


def _after_bracket(rec, args, kwargs, out):
    rec.bracket_widths.append(rel_width(out.lower, out.upper, out.status))


def _after_run_session(rec, args, kwargs, out):
    rec.cli_fails += sum(1 for r in out.records if "error" in r.detail)


AFTER = {"sdp_solve": _after_sdp, "run_session": _after_run_session,
         "haagerup_bracket_flat": _after_bracket, "proj_bracket_flat": _after_bracket,
         "inj_norm_flat": _after_bracket}


def _wrap(rec: Recorder, layer: str, name: str, fn):
    spans, stack, after = rec.spans, rec.stack, AFTER.get(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, rec.item]
        stack.append(len(spans))
        spans.append(span)
        span[2] = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[3] = clock()
            stack.pop()
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return traced


def install(rec: Recorder) -> None:
    """Wrap every entry point and rebind each attribute that names it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "oscat" or name.startswith("oscat."))]
    for layer, (home, names) in LAYERS.items():
        mod = sys.modules[home]
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(_wrap(rec, layer, meth, raw.__func__)))
                else:
                    setattr(cls, meth, _wrap(rec, layer, meth, raw))
                continue
            orig = getattr(mod, name)
            traced = _wrap(rec, layer, name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)


def layer_metrics(rec: Recorder) -> dict:
    spans = rec.spans
    covered = [0.0] * len(spans)
    for layer, name, start, end, parent, item in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (layer, name, start, end, parent, item), cov in zip(spans, covered):
        calls[layer] += 1
        self_s[layer] += (end - start) - cov
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    widths = rec.bracket_widths
    out.update({
        "cli.fails": rec.cli_fails,
        "normlab.sdp.iterations": rec.sdp_iterations,
        "normlab.sdp.lmi_bytes": rec.sdp_lmi_bytes,
        "normlab.sdp.not_optimal": rec.sdp_not_optimal,
        "normlab.sdp.gap_rel_max": rec.sdp_gap_rel_max,
        "normlab.brackets.width_rel_mean": sum(widths) / len(widths) if widths else 0.0,
    })
    return {name: out[name] for name, _ in METRICS}


def write_spans(rec: Recorder, path) -> None:
    """All spans of the round as gzipped JSON lines, times relative to the first."""
    t0 = rec.spans[0][2] if rec.spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for idx, (layer, name, start, end, parent, item) in enumerate(rec.spans):
            fh.write(json.dumps({"id": idx, "name": f"{layer}:{name}",
                                 "start": round(start - t0, 7), "end": round(end - t0, 7),
                                 "parent": parent, "item": item}) + "\n")
