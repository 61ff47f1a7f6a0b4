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


def test_probe(workloads):
    workloads.probe(0)


@pytest.mark.parametrize("name", ["session_mix", "diamond"])
def test_first_items_check(workloads, name):
    for item in workloads.build(name, 1).items[:3]:
        errors, _ = item.check(item.run())
        assert errors == [], (item.kind, errors)
