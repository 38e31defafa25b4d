"""Charge profiled host time to the repository's layers.

A layer is a package under ``src/repro`` (``sim``, ``core``, ``dfs``,
...).  ``cProfile`` gives each function's self time and, per caller,
the self and cumulative time spent on behalf of that caller.  Repo code
keeps its own self time.  Standard-library and builtin time (``json``,
``base64``, ``heapq``, ``list.append``...) is charged to the repo layer
that called it: the caller edge's self time goes to the caller, and a
non-repo caller passes it on to its own callers in proportion to the
cumulative time each of them spent through it.  Without that charge the
codec would be invisible behind "builtins".

Two buckets sit beside the named layers: ``cluster`` (top-level modules
such as ``repro/cluster.py`` and the packages not listed) and
``harness`` (the benchmark's own code, and time no repo frame called).
The asyncio event loop and its selector are charged to ``transport``:
``AsyncioTransport`` is the only repo code that runs on a loop, so the
loop is the transport's runtime.
"""

from __future__ import annotations

import os
import pstats
import sys
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim",
    "core",
    "dfs",
    "storage",
    "net",
    "scheduler",
    "mapreduce",
    "transport",
    "obs",
    "metrics",
    "workloads",
)
BUCKETS = LAYERS + ("cluster", "harness")


class LayerMap:
    """Maps a profiled function's file name to its layer (or ``None``
    for standard-library and builtin code)."""

    def __init__(self, repro_dir: str, bench_dir: str):
        self.repro_prefix = os.path.realpath(repro_dir) + os.sep
        self.bench_prefix = os.path.realpath(bench_dir) + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def layer(self, filename: str) -> Optional[str]:
        if filename not in self._cache:
            self._cache[filename] = self._classify(filename)
        return self._cache[filename]

    def _classify(self, filename: str) -> Optional[str]:
        if filename.startswith("~") or filename.startswith("<"):
            return None
        path = os.path.realpath(filename)
        if path.startswith(self.repro_prefix):
            package = path[len(self.repro_prefix):].split(os.sep)[0]
            return package if package in LAYERS else "cluster"
        if path.startswith(self.bench_prefix):
            return "harness"
        if f"{os.sep}asyncio{os.sep}" in path or path.endswith(f"{os.sep}selectors.py"):
            return "transport"
        return None


def charge(stats: pstats.Stats, layers: LayerMap) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and call counts per bucket of :data:`BUCKETS`."""
    table = stats.stats
    owner = {func: layers.layer(func[0]) for func in table}
    shares: Dict[tuple, Dict[str, float]] = {}

    def share(func, active) -> Dict[str, float]:
        """How time spent inside non-repo ``func`` splits over buckets."""
        if owner.get(func):
            return {owner[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = table[func][4] if func in table else {}
        if func in active or not callers:
            return {"harness": 1.0}
        active.add(func)
        total = sum(edge[3] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[3] / total if total > 0 else 1.0 / len(callers)
            for bucket, part in share(caller, active).items():
                out[bucket] = out.get(bucket, 0.0) + weight * part
        active.discard(func)
        shares[func] = out
        return out

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        seconds = {bucket: 0.0 for bucket in BUCKETS}
        calls = {bucket: 0 for bucket in BUCKETS}
        for func, (_, nc, tt, _, callers) in table.items():
            if owner[func]:
                seconds[owner[func]] += tt
                calls[owner[func]] += nc
                continue
            edge_total = sum(edge[2] for edge in callers.values())
            if not callers or edge_total <= 0:
                seconds["harness"] += tt
                continue
            for caller, edge in callers.items():
                part = tt * edge[2] / edge_total
                for bucket, weight in share(caller, set()).items():
                    seconds[bucket] += part * weight
    finally:
        sys.setrecursionlimit(limit)
    return seconds, calls


def transport_requests(stats: pstats.Stats) -> int:
    """Messages handed to an endpoint handler: every delivery on either
    backend goes through ``Transport._handler`` exactly once."""
    return sum(
        row[1]
        for func, row in stats.stats.items()
        if func[2] == "_handler" and func[0].endswith(os.path.join("transport", "base.py"))
    )
