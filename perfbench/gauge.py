"""Host-speed gauges: fixed kernels timed next to each item.

The host this benchmark was built on is a shared VM whose speed drifts by up
to 2x for seconds to minutes at a time, and the drift hits large working sets
(the n = 3 and n = 4 SDPs) harder than small ones.  Raw item times therefore
spread more across runs than any useful regression bound.  So every timed
item is followed by a gauge: a fixed kernel that does the same kind of work
as the item, on inputs drawn from a fixed seed, with no oscat code in it.  A
change to oscat cannot change a gauge's time; only the host can.

    reference time = measured time * NOMINAL_S[gauge] / gauge time

`NOMINAL_S` is each gauge's time on that host at its usual speed, so
reference times read like raw times there.  A gauge time is the fastest of
SLICES back-to-back slices, taken right after the item.  A round worker asks
a gauge process (`Gauges`, which runs this file) for it, so the gauges'
arrays never count in the worker's peak RSS; the worker waits meanwhile, so
the two never compete for the CPU.  Both are pinned to one CPU (`pin_here`):
a gauge on the other CPU of the 2-vCPU host tracked the worker's speed worse
than no gauge at all.

Gauges:
- `py`: interpreter-bound work (dicts, strings, sorting, objects, list
  comprehensions, small numpy calls).
- `mix`: `py`, `sdp2h` and `sdp3h` in a row, for sessions, setup and other
  mixed items.  In the host's fast spells `py` alone sped up 1.6x where
  sessions sped up 1.25x, and so overcorrected; the larger working set of
  `sdp3h` speeds up less, and the sum follows sessions more closely.
- `sdp<n><h|r>`: one damped-Newton step of the dense SDP core at the block
  shape the n-dimensional Hermitian (h) or general (r) diamond/cb problem
  uses: Cholesky and inverse of the slack block, the Hessian GEMM
  tr(S⁻¹FᵢS⁻¹Fⱼ), and the Newton solve.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

SLICES = 5

# gauge -> (LMI count m, real block size nb, kernel repeats per slice)
SDP_SHAPES = {
    "sdp2h": (19, 16, 10),
    "sdp2r": (38, 16, 8),
    "sdp3h": (89, 36, 1),
    "sdp3r": (178, 36, 1),
    "sdp4h": (271, 64, 1),
}

# seconds per slice on the 2-vCPU Xeon VM (2.0 GHz) the benchmark was built on
NOMINAL_S = {
    "py": 0.85e-3,
    "sdp2h": 0.6e-3,
    "sdp2r": 0.87e-3,
    "sdp3h": 1.3e-3,
    "sdp3r": 3.9e-3,
    "sdp4h": 23.0e-3,
}
MIX = ("py", "sdp2h", "sdp3h")
NOMINAL_S["mix"] = sum(NOMINAL_S[name] for name in MIX)

_inputs: dict = {}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _py_slice() -> float:
    # several kinds of interpreter work, so that a quirk of one process's
    # memory layout that speeds up one kind moves the sum less
    import numpy as np

    words = {}
    for i in range(200):
        key = f"w{i * 7919 % 1000:03d}.{i % 13}"
        words[key] = words.get(key, 0) + i
    ranked = sorted(words.items(), key=lambda kv: (kv[1] % 17, kv[0]))
    acc = float(len(ranked))
    acc += sum(p.a * p.b for p in [_Pair(i, i + 1) for i in range(300)])
    xs = [(i * 37) % 101 for i in range(800)]
    acc += sum(x * x for x in xs if x & 1)
    if "py" not in _inputs:
        _inputs["py"] = [np.eye(4) + 0.1 * k for k in range(8)]
    for m in _inputs["py"]:
        acc += float(np.linalg.norm(m @ m.T, 2))
    return acc


def _sdp_inputs(name):
    import numpy as np

    m, nb, _ = SDP_SHAPES[name]
    rng = np.random.default_rng(0)
    a = rng.standard_normal((nb, nb))
    s = a @ a.T + nb * np.eye(nb)
    f = rng.standard_normal((m, nb, nb))
    g = rng.standard_normal(m)
    return s, f + f.transpose(0, 2, 1), g


def _sdp_slice(name) -> float:
    import numpy as np

    s, fsb, grad = _inputs[name]
    m, nb, reps = SDP_SHAPES[name]
    acc = 0.0
    for _ in range(reps):
        np.linalg.cholesky(s)
        sinv = np.linalg.inv(s)
        w = ((sinv + sinv.T) / 2) @ fsb
        g = np.trace(w, axis1=1, axis2=2)
        h = w.reshape(m, nb * nb) @ w.transpose(0, 2, 1).reshape(m, nb * nb).T
        d = np.linalg.solve(h + m * np.eye(m), grad - g)
        acc += float(d[0])
    return acc


def measure(name: str) -> float:
    """Seconds of the fastest of SLICES slices of gauge `name`, run now."""
    if name == "mix":
        return sum(measure(part) for part in MIX)
    if name == "py":
        run, arg = _py_slice, None
    else:
        if name not in _inputs:
            _inputs[name] = _sdp_inputs(name)
        run, arg = _sdp_slice, name
    clock = time.perf_counter
    best = float("inf")
    for _ in range(SLICES):
        t0 = clock()
        run() if arg is None else run(arg)
        best = min(best, clock() - t0)
    return best


def factor(name: str, gauge_s: float) -> float:
    """Multiplier from measured to reference time."""
    return NOMINAL_S[name] / gauge_s


def pin_here():
    """Pin this process, and so the processes it starts, to its current CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat") as fh:  # field 39 is the CPU last run on
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Gauges:
    """A gauge process: `measure(name)` runs gauge `name` there and waits.

    The process ends when its stdin closes: on `close()`, or when the
    worker that started it exits for any reason.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def measure(self, name: str) -> float:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def serve() -> None:
    """Read one gauge name per line from stdin; answer with its time."""
    for line in sys.stdin:
        print(repr(measure(line.strip())), flush=True)


if __name__ == "__main__":
    serve()
