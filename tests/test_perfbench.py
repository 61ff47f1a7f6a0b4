"""The benchmark harness still runs against the library.

perfbench/workloads.py is imported read-only.  A change to oscat that breaks a
name, option or answer the harness relies on fails here, before it fails a
benchmark run.
"""
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_traced_entry_points_resolve(monkeypatch):
    # read-only: every entry point the tracer wraps still exists in the form
    # it wraps (module function, class method, or the staticmethod
    # SuperOp.from_action), so `--trace 1` cannot break on a rename
    import importlib
    import inspect

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for layer, (home, names) in tracing.LAYERS.items():
        mod = importlib.import_module(home)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                raw = vars(getattr(mod, cls_name)).get(meth)
                if meth == "from_action":
                    assert isinstance(raw, staticmethod), (layer, name)
                else:
                    assert inspect.isfunction(raw), (layer, name)
            else:
                assert inspect.isfunction(getattr(mod, name, None)), (layer, name)


def test_probe(workloads):
    workloads.probe(0)


@pytest.mark.parametrize("name", ["session_mix", "diamond"])
def test_first_items_check(workloads, name):
    for item in workloads.build(name, 1).items[:3]:
        errors, _ = item.check(item.run())
        assert errors == [], (item.kind, errors)


def test_diamond_closed_form_items_skip_sdp(workloads, monkeypatch):
    # transposes and CPTP maps have a closed form: the benchmark's own inputs
    # must reach it, not the SDP
    import oscat.normlab.diamond as diamond_mod

    def no_sdp(*a, **kw):
        raise AssertionError("SDP solved for a map with a closed form")

    monkeypatch.setattr(diamond_mod, "sdp_solve", no_sdp)
    items = [it for it in workloads.build("diamond", 1).items
             if it.kind.split("-")[1] in ("transpose", "cptp")]
    assert len(items) > 0
    for item in items:
        errors, _ = item.check(item.run())
        assert errors == [], (item.kind, errors)


def test_diamond_random_items_mostly_skip_sdp(workloads, monkeypatch):
    # the reweighted closed form decides most random n = 3 maps: at seed 1,
    # at most 2 of the batch's 20 reach the SDP, and every answer checks
    import oscat.normlab.diamond as diamond_mod

    solved = []
    solve = diamond_mod.sdp_solve
    monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p: solved.append(1) or solve(p))
    items = [it for it in workloads.build("diamond", 1).items if it.kind.endswith("-random-n3")]
    assert len(items) == 20
    reached = 0
    for item in items:
        solved.clear()
        errors, _ = item.check(item.run())
        assert errors == [], (item.kind, errors)
        reached += bool(solved)
    assert reached <= 2


def test_session_haagerup_norms_mostly_skip_sdp(workloads, monkeypatch):
    # the rank-one face decides most M₂⊗ₕM₂ level-1 norms: at seed 1, the
    # sessions that hold `norm haagerup` reach the SDP at most 3 times in
    # total, and every answer checks
    import oscat.normlab.diamond as diamond_mod

    solved = []
    solve = diamond_mod.sdp_solve
    monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p: solved.append(1) or solve(p))
    sessions = reached = 0
    for item in workloads.build("session_mix", 1).items:
        solved.clear()
        out = item.run()
        errors, _ = item.check(out)
        assert errors == [], (item.kind, errors)
        if any(rec.command.startswith("norm haagerup") for rec in out[0].records):
            sessions += 1
            reached += len(solved)
    assert sessions >= 30
    assert reached <= 3


def test_session_lapack_calls(workloads, linalg_calls):
    # LAPACK dispatch is the largest single cost of the many small numpy
    # calls in a session: the seed-1 batch makes at most 3000 np.linalg calls
    # (2743 when this test was written), and every answer still checks
    batch = workloads.build("session_mix", 1)
    linalg_calls.clear()
    for item in batch.items:
        errors, _ = item.check(item.run())
        assert errors == [], (item.kind, errors)
    assert sum(linalg_calls.values()) <= 3000, dict(linalg_calls)


def test_sdp_lmi_bytes_read_from_the_problem(monkeypatch):
    # read-only: the tracer's per-layer LMI byte count reads the triples the
    # diamond LMI hands to the SDP, so an SDP API change cannot zero it quietly
    import numpy as np

    import oscat.normlab.diamond as diamond_mod
    from oscat.normlab.sdp import SdpResult

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    prob = diamond_mod._diamond_lmi(2, 2, False)
    rec = tracing.Recorder()
    tracing._after_sdp(rec, (prob,), {}, SdpResult(status="optimal", value=-1.0, gap=0.0, iterations=7))
    assert rec.sdp_lmi_bytes == prob.fs.nbytes > 0
    assert rec.sdp_iterations == 7 and rec.sdp_not_optimal == 0
    assert np.isfinite(rec.sdp_gap_rel_max)
