"""Machine-speed calibration for request latencies.

On a machine shared with other tenants, their load can slow every
instruction by up to about 2x, in bursts lasting from tens of milliseconds
to minutes, which moves raw latency medians by 15-30 % between runs.  A
fixed calibration kernel that never touches the package runs just before and
just after each request; the request's latency is divided by the mean of the
two kernel times and multiplied by the kernel's reference time.  The result
is the request's latency at reference speed ("ref_ms").

Contention slows interpreted Python, small NumPy calls, LAPACK and
memory-bound products by different factors, so each workload has its own
kernel doing the same kinds of work as its requests, in the benchmark's own
code: a program change moves the request time and leaves the kernel time
alone.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter

import numpy as np

# 5th percentile of each kernel's time over 3000 calls on a 2-vCPU Intel
# Xeon VM at 2.0 GHz with single-threaded OpenBLAS, close to its time on an
# unloaded machine.
REFERENCE_S = {
    "design_batch": 1.3e-3,
    "fixed_large": 2.4e-3,
    "switching_long": 1.8e-3,
}


class Calibration:
    """Reference work shaped like one workload's requests."""

    def __init__(self, workload: str) -> None:
        self.reference_s = REFERENCE_S[workload]
        self._kernel = getattr(self, f"_{workload}")
        rng = np.random.default_rng(0)
        small = rng.normal(size=(48, 48))
        self.small = small + small.T
        self.tiny = [m @ m.T for m in rng.normal(size=(20, 3, 3))]
        self.lap21 = rng.normal(size=(21, 21))
        self.lap630 = rng.normal(size=(630, 630)) / 630.0
        self.rows = rng.normal(size=(3, 632))
        self.succ = {v: [(v * 7 + k) % 15 for k in (1, 2)] for v in range(15)}
        self.text = json.dumps({"edges": [{"from": i, "to": (i + 1) % 15, "weight":
                                           m.tolist()} for i, m in enumerate(self.tiny)]})

    def measure(self) -> float:
        """Seconds the kernel took now."""
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0

    def _rk4(self, lap: np.ndarray, steps: int) -> None:
        x = np.zeros(lap.shape[0])
        f = np.ones(lap.shape[0])
        out = []
        for _ in range(steps):
            k1 = f - lap @ x
            k2 = f - lap @ (x + 0.0005 * k1)
            k3 = f - lap @ (x + 0.0005 * k2)
            k4 = f - lap @ (x + 0.001 * k3)
            x = x + (0.001 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if np.max(np.abs(x)) > 1e12:
                raise FloatingPointError("calibration state diverged")
            out.append(x)
        np.vstack(out)

    def _design_batch(self) -> None:
        """JSON parsing, 3x3 eigensolves, breadth-first searches over a
        dict graph and a 48x48 SVD and eigensolve."""
        data = json.loads(self.text)
        for e in data["edges"]:
            np.linalg.eigvalsh(np.array(e["weight"]))
        self._searches(6)
        np.linalg.svd(self.small)
        np.linalg.eigvals(self.small)

    def _searches(self, rounds: int) -> None:
        for src in range(15):
            for _ in range(rounds):
                seen = {src}
                queue = deque([src])
                while queue:
                    for v in self.succ[queue.popleft()]:
                        if v not in seen:
                            seen.add(v)
                            queue.append(v)

    def _fixed_large(self) -> None:
        """One RK4 step on a dense 630 x 630 matrix, full-precision CSV
        formatting and breadth-first searches."""
        self._rk4(self.lap630, 1)
        for row in self.rows:
            ",".join(f"{v:.17g}" for v in row)
        self._searches(3)

    def _switching_long(self) -> None:
        """RK4 steps on a dense 21 x 21 matrix."""
        self._rk4(self.lap21, 100)
