"""Perf smoke test: catch large kernel/scheduler slowdowns in CI.

The 200-job SWIM run completes in ~0.35s on a 2026 dev box after the
locality-index + kernel optimization pass (it took ~1.0s before it).
``python3 perfbench/run.py`` measures properly (recorded runs in
``perfbench/baseline.json``).  The ceiling below leaves generous headroom for
slower CI machines while still failing if the run regresses by more
than ~2x on comparable hardware — e.g. if locality lookups fall back to
per-heartbeat cache polling or the event queue loses its packed keys.
"""

import time

from repro.experiments.swim_runs import clear_cache, run_swim
from repro.workloads.serve import ServeConfig, run_serve

#: Generous wall-clock budget (seconds) for one 200-job Ignem SWIM run.
SMOKE_CEILING_SECONDS = 1.5

#: Budget for the 1200-request heat-policy serve run (~0.09s on a 2026
#: dev box; ``perfbench/baseline.json`` has the benchmark's serve runs).  The heat path adds a read
#: listener on every NameNode read and a migrator tick loop — this
#: ceiling fails CI if either becomes a per-event hot spot.
SERVE_CEILING_SECONDS = 1.0


def test_swim_200_jobs_within_wall_clock_budget():
    best = float("inf")
    # Best of two: the first run also pays one-time import/JIT-warmup
    # costs that have nothing to do with simulator throughput.
    for _ in range(2):
        clear_cache()
        start = time.perf_counter()
        run_swim("ignem", num_jobs=200)
        best = min(best, time.perf_counter() - start)
    clear_cache()
    assert best < SMOKE_CEILING_SECONDS, (
        f"200-job SWIM run took {best:.2f}s (budget {SMOKE_CEILING_SECONDS}s); "
        "run python3 perfbench/run.py --workload swim to measure properly"
    )


def test_serve_1200_requests_within_wall_clock_budget():
    config = ServeConfig(policy="heat", seed=0)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        run_serve(config)
        best = min(best, time.perf_counter() - start)
    assert best < SERVE_CEILING_SECONDS, (
        f"1200-request serve run took {best:.2f}s (budget "
        f"{SERVE_CEILING_SECONDS}s); run python3 perfbench/run.py "
        "--workload serve to measure properly"
    )
