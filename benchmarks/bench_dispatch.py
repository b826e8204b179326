"""Concurrent-dispatch benchmark: overlapped round-trips, identical bytes (PR 4).

The paper's sampler is rate-limited by round-trips to the hidden database.
This benchmark answers the question the dispatch subsystem exists for: when
each shard sub-query costs a network-shaped round-trip, does scattering the
sub-queries over a thread pool actually buy the wall-clock back?

Three sections; ``--check`` enforces three floors (parallel shards ≥ 2×,
pooled ≥ 1.3×, batched ≥ 1.5×):

* **parallel_shards** (guarded) — 4 table shards, each wrapped in an
  ``UnreliableLayer(latency=...)`` simulating a per-request round-trip, behind
  a serial ``ShardRouter`` vs a ``ConcurrentShardRouter``.  The merged
  responses are asserted byte-identical first; then the parallel router must
  deliver **≥ 2× the serial throughput** (it approaches 4× — the serial
  router pays 4 round-trips per query, the parallel one pays ~1).
* **inprocess_shards** (informational) — the same routers over bare
  CPU-bound shards, no latency.  Honest numbers: the interpreter lock
  serialises pure-Python ranking, so threads buy ~nothing here; this section
  documents that parallel dispatch is a *latency* optimisation, not a CPU one.
* **remote_http** (guarded) — live ``repro.web.httpd`` endpoints on loopback
  sockets.  Two guarded sub-sections exercise the transport optimisations on
  the configs they exist for: **pooled vs unpooled** on a connect-dominated
  config (cheap queries, so the per-request TCP connect is the cost — pooled
  keep-alive must be **≥ 1.3×** the one-connect-per-request baseline), and
  **batched vs single** on a latency-bound config (each server-side
  submission pays a simulated database hop, the shard sections' trick —
  ``POST /api/submit_batch`` fan-out must be **≥ 1.5×** single-query
  round-trips).  The merged responses are asserted byte-identical first,
  as always.

Usage (mirrors the other benchmark scripts)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py            # full run (50k rows)
    PYTHONPATH=src python benchmarks/bench_dispatch.py --quick    # reduced workload
    PYTHONPATH=src python benchmarks/bench_dispatch.py --check    # assert the floors

Results are written to ``BENCH_dispatch.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends import (
    BackendStack,
    ConcurrentShardRouter,
    RemoteBackend,
    ShardRouter,
    TableShardBackend,
    UnreliableLayer,
    engine_stack,
    remote_stack,
)
from repro.database.query import ConjunctiveQuery
from repro.datasets.vehicles import VehiclesConfig, generate_vehicles_table
from repro.web.httpd import HiddenDatabaseHTTPServer

K = 100
SEED = 2026
N_SHARDS = 4
#: Simulated per-request round-trip of one shard backend, seconds.  4 ms is
#: conservative for a LAN database hop; WAN latencies only widen the gap.
SHARD_LATENCY = 0.004

#: Acceptance floor: the parallel router must at least halve the wall clock
#: of latency-bound 4-shard dispatch (the theoretical ceiling is ~4x).
MIN_PARALLEL_SPEEDUP = 2.0

#: Rows of the remote-section catalogue: small on purpose, so per-request
#: transport overhead (the thing under test) dominates per-query engine work.
REMOTE_ROWS = 500
#: Simulated per-submission hop of the latency-bound remote config, seconds —
#: the web server's own backend paying a LAN database round-trip.
REMOTE_BACKEND_LATENCY = 0.002
#: Wire-batch shape of the batched remote config.
BATCH_SIZE = 25
BATCH_WORKERS = 4

#: Acceptance floors for the remote transport (ISSUE 5): keep-alive pooling
#: must beat one-connect-per-request by ≥ 1.3x on the connect-dominated
#: config, and the batch endpoint must beat single-query round-trips by
#: ≥ 1.5x on the latency-bound config.
MIN_POOL_SPEEDUP = 1.3
MIN_BATCH_SPEEDUP = 1.5



def _random_queries(schema, rng: random.Random, count: int, min_preds: int = 1, max_preds: int = 3):
    queries = []
    for _ in range(count):
        n = rng.randint(min_preds, min(max_preds, len(schema)))
        attributes = rng.sample(schema.attribute_names, n)
        assignment = {
            name: rng.choice(schema.attribute(name).domain.values) for name in attributes
        }
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


def _time(action, operands) -> float:
    start = time.perf_counter()
    for operand in operands:
        action(operand)
    return time.perf_counter() - start


def _latency_shards(table, ranking=None) -> list[UnreliableLayer]:
    """The 4 partitions, each behind a simulated per-request round-trip."""
    return [
        UnreliableLayer(
            TableShardBackend(table, K, shard_index, N_SHARDS, ranking=ranking),
            latency=SHARD_LATENCY,
        )
        for shard_index in range(N_SHARDS)
    ]


def bench_parallel_shards(table, queries) -> dict:
    """Latency-bound shard dispatch: serial vs thread-pooled, same bytes."""
    serial = ShardRouter(_latency_shards(table))
    parallel = ConcurrentShardRouter(_latency_shards(table), max_workers=N_SHARDS)
    # Byte-identical first, fast second.
    for query in queries[: min(20, len(queries))]:
        assert serial.submit(query) == parallel.submit(query), str(query)
    serial_time = _time(serial.submit, queries)
    parallel_time = _time(parallel.submit, queries)
    parallel.close()
    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    return {
        "queries": len(queries),
        "n_shards": N_SHARDS,
        "shard_latency_ms": SHARD_LATENCY * 1000,
        "serial_ops_per_sec": round(len(queries) / serial_time, 1),
        "parallel_ops_per_sec": round(len(queries) / parallel_time, 1),
        "speedup": round(speedup, 2),
    }


def bench_inprocess_shards(table, queries) -> dict:
    """The honest control: CPU-bound shards, where the GIL caps the win."""
    serial = ShardRouter.over_table(table, N_SHARDS, k=K)
    parallel = ConcurrentShardRouter.over_table(table, N_SHARDS, k=K, max_workers=N_SHARDS)
    for query in queries[: min(20, len(queries))]:
        assert serial.submit(query) == parallel.submit(query), str(query)
    serial_time = _time(serial.submit, queries)
    parallel_time = _time(parallel.submit, queries)
    parallel.close()
    return {
        "queries": len(queries),
        # Never enforced by --check: the GIL caps this section by design and
        # its speedup hovers around 1.0x either side of even.
        "informational": True,
        "serial_ops_per_sec": round(len(queries) / serial_time, 1),
        "parallel_ops_per_sec": round(len(queries) / parallel_time, 1),
        "speedup": round(serial_time / parallel_time, 2) if parallel_time > 0 else None,
    }


def bench_remote_pooling(remote_table, queries) -> dict:
    """Connect-dominated config: keep-alive pooling vs one connect per request.

    The served catalogue is deliberately small so the per-request TCP connect
    (plus the handler thread it spawns server-side) is the dominant cost —
    exactly what a pooled persistent connection amortises away.
    """
    served = engine_stack(remote_table, K, statistics=False)
    with HiddenDatabaseHTTPServer(served) as server:
        pooled = RemoteBackend(server.url)
        unpooled = RemoteBackend(server.url, pool_size=0)
        # Byte-identical first, fast second.
        for query in queries[: min(20, len(queries))]:
            assert pooled.submit(query) == unpooled.submit(query), str(query)
        unpooled_time = _time(unpooled.submit, queries)
        pooled_time = _time(pooled.submit, queries)
        pool_stats = pooled.pool_statistics
        pooled.close()
    speedup = unpooled_time / pooled_time if pooled_time > 0 else float("inf")
    return {
        "queries": len(queries),
        "rows": REMOTE_ROWS,
        "unpooled_ops_per_sec": round(len(queries) / unpooled_time, 1),
        "pooled_ops_per_sec": round(len(queries) / pooled_time, 1),
        "pooled_speedup": round(speedup, 2),
        "pool_statistics": pool_stats,
    }


def bench_remote_batching(remote_table, queries) -> dict:
    """Latency-bound config: one POST per 25 queries vs one GET per query.

    The endpoint's own backend pays a simulated per-submission database hop
    (the same trick the shard section uses), so single-query round-trips are
    latency-bound; the batch endpoint amortises the hop over the server's
    concurrent item fan-out and the HTTP overhead over the whole chunk.
    """
    raw = engine_stack(remote_table, K, statistics=False).top
    served = BackendStack(
        raw, [lambda inner: UnreliableLayer(inner, latency=REMOTE_BACKEND_LATENCY)]
    )
    with HiddenDatabaseHTTPServer(served, batch_workers=8) as server:
        single = remote_stack(server.url)
        batched = remote_stack(server.url, parallel=BATCH_WORKERS, batch=BATCH_SIZE)
        probe = queries[: min(20, len(queries))]
        assert batched.submit_many(probe) == [single.submit(q) for q in probe]
        single_time = _time(single.submit, queries)
        batch_time = time.perf_counter()
        batched.submit_many(queries)
        batch_time = time.perf_counter() - batch_time
        retry_stats = batched.layer(UnreliableLayer).statistics.as_dict()
    speedup = single_time / batch_time if batch_time > 0 else float("inf")
    return {
        "queries": len(queries),
        "rows": REMOTE_ROWS,
        "backend_latency_ms": REMOTE_BACKEND_LATENCY * 1000,
        "batch_size": BATCH_SIZE,
        "batch_workers": BATCH_WORKERS,
        "single_ops_per_sec": round(len(queries) / single_time, 1),
        "batched_ops_per_sec": round(len(queries) / batch_time, 1),
        "batched_speedup": round(speedup, 2),
        "retry_statistics": retry_stats,
    }


def run(
    n_rows: int,
    n_latency_queries: int,
    n_cpu_queries: int,
    n_http_queries: int,
) -> dict:
    rng = random.Random(SEED)
    table = generate_vehicles_table(VehiclesConfig(n_rows=n_rows, seed=SEED))
    remote_table = generate_vehicles_table(VehiclesConfig(n_rows=REMOTE_ROWS, seed=SEED))
    latency_queries = _random_queries(table.schema, rng, n_latency_queries)
    cpu_queries = _random_queries(table.schema, rng, n_cpu_queries)
    http_queries = _random_queries(remote_table.schema, rng, n_http_queries)
    shards = bench_parallel_shards(table, latency_queries)
    inprocess = bench_inprocess_shards(table, cpu_queries)
    pooling = bench_remote_pooling(remote_table, http_queries)
    batching = bench_remote_batching(remote_table, http_queries)
    print(
        f"rows={n_rows}  latency-bound {N_SHARDS}-shard dispatch: "
        f"{shards['parallel_ops_per_sec']:>7.1f} vs {shards['serial_ops_per_sec']:>7.1f} q/s "
        f"({shards['speedup']:.2f}x)   in-process: {inprocess['speedup']:.2f}x"
    )
    print(
        f"remote http: pooled {pooling['pooled_ops_per_sec']:.1f} vs unpooled "
        f"{pooling['unpooled_ops_per_sec']:.1f} q/s ({pooling['pooled_speedup']:.2f}x)   "
        f"batched {batching['batched_ops_per_sec']:.1f} vs single "
        f"{batching['single_ops_per_sec']:.1f} q/s ({batching['batched_speedup']:.2f}x)"
    )
    return {
        "k": K,
        "seed": SEED,
        "rows": n_rows,
        "parallel_shards": shards,
        "inprocess_shards": inprocess,
        "remote_http": {
            "pooling": pooling,
            "batching": batching,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload (CI smoke mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail if a guarded speedup regresses past its floor")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_dispatch.json",
                        help="where to write the machine-readable report")
    args = parser.parse_args(argv)

    if args.quick:
        report = run(
            n_rows=5_000,
            n_latency_queries=60,
            n_cpu_queries=150,
            n_http_queries=60,
        )
    else:
        report = run(
            n_rows=50_000,
            n_latency_queries=200,
            n_cpu_queries=400,
            n_http_queries=150,
        )
    report["mode"] = "quick" if args.quick else "full"

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        speedup = report["parallel_shards"]["speedup"]
        if speedup < MIN_PARALLEL_SPEEDUP:
            failures.append(
                f"parallel {N_SHARDS}-shard dispatch speedup {speedup:.2f}x "
                f"< {MIN_PARALLEL_SPEEDUP:.0f}x floor"
            )
        pooled = report["remote_http"]["pooling"]["pooled_speedup"]
        if pooled < MIN_POOL_SPEEDUP:
            failures.append(
                f"pooled remote speedup {pooled:.2f}x < {MIN_POOL_SPEEDUP:.1f}x floor"
            )
        batched = report["remote_http"]["batching"]["batched_speedup"]
        if batched < MIN_BATCH_SPEEDUP:
            failures.append(
                f"batched remote speedup {batched:.2f}x < {MIN_BATCH_SPEEDUP:.1f}x floor"
            )
        inprocess = report["inprocess_shards"]["speedup"]
        print(
            f"note: in-process shard control is informational only "
            f"({inprocess:.2f}x, GIL-bound by design — no floor enforced)"
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"check passed: parallel dispatch {speedup:.2f}x >= "
            f"{MIN_PARALLEL_SPEEDUP:.0f}x, pooled remote {pooled:.2f}x >= "
            f"{MIN_POOL_SPEEDUP:.1f}x, batched remote {batched:.2f}x >= "
            f"{MIN_BATCH_SPEEDUP:.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
