"""Reference computations: fixed work that uses no alexkit code.

The benchmark's host is a shared virtual machine whose CPU speed drifts by
up to 1.7 times over seconds to minutes.  Wall time equals CPU time there,
so this is not preemption, and any statistic of raw times follows the share
of slow time in the run.  A reference computation timed next to the
program's commands tells how fast the machine was at that moment, and the
benchmark scales the program's times by it (see ``run.py``).

The drift does not slow every kind of work alike, so there are two
references, and each workload uses the one whose run-to-run means followed
its own drift best:

* ``interpreter``: scalar float math in Python loops, a heap, a few numpy
  elementwise kernels and a small JSON load.  It follows the hinge-lemma
  sweeps and, over spans of 30 s, the quadruple scans (their threaded numpy
  kernels slowed 1.7 times in one 5-minute span, while the scaled time
  had a standard deviation of 4%; a numpy reference in threads did worse);
* ``graph``: a JSON load of a 14,400-vertex graph, an adjacency-list build
  and a heap-based Dijkstra over it.  It follows the loads and geodesic
  walks of the mesh commands, which slow less than the interpreter.

Each function returns its own wall time.  The garbage collector is off
while one runs, so that its time does not depend on the objects the
program's commands left alive.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import random
import time

import numpy as np

_SMALL_JSON = json.dumps({"vertices": [{"xy": [0.5 * i, 0.25 * i], "in_U": i % 3 == 0}
                                       for i in range(2000)]})
_X = np.linspace(0.0, 1.0, 20_000)


def interpreter() -> float:
    """About 20 ms on a 2-vCPU cloud VM in its fast state."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(15_000):
            acc += math.sin(i * 1e-3) * math.cos(i * 2e-3)
        rng = random.Random(0)
        heap = []
        for i in range(8_000):
            heapq.heappush(heap, (rng.random(), i))
        while heap:
            heapq.heappop(heap)
        for _ in range(10):
            np.arccos(np.clip(np.sin(_X) * np.cos(_X), -1.0, 1.0)).sum()
        json.loads(_SMALL_JSON)
        return time.perf_counter() - t0
    finally:
        gc.enable()


_GRID = 120
_STENCIL = ((0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (2, 0))


def _graph_json() -> str:
    n = _GRID
    vertices = [{"in_U": True, "xy": [0.01 * i, 0.01 * j]} for i in range(n) for j in range(n)]
    edges = [[i * n + j, a * n + b, 0.01 * math.hypot(di, dj)]
             for i in range(n) for j in range(n) for di, dj in _STENCIL
             for a, b in ((i + di, j + dj),) if 0 <= a < n and 0 <= b < n]
    return json.dumps({"vertices": vertices, "edges": edges})


_GRAPH_JSON: str | None = None


def graph() -> float:
    """About 100 ms on a 2-vCPU cloud VM in its fast state."""
    global _GRAPH_JSON
    if _GRAPH_JSON is None:
        _GRAPH_JSON = _graph_json()
    gc.disable()
    try:
        t0 = time.perf_counter()
        data = json.loads(_GRAPH_JSON)
        adj = [[] for _ in data["vertices"]]
        for i, j, w in data["edges"]:
            adj[i].append((j, w))
            adj[j].append((i, w))
        dist = [math.inf] * len(adj)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        return time.perf_counter() - t0
    finally:
        gc.enable()


# Reported times are scaled to a machine on which each reference takes this
# long: about its time on the VM above in its fast state.
SECONDS = {"interpreter": 0.02, "graph": 0.1}
FUNCTIONS = {"interpreter": interpreter, "graph": graph}
