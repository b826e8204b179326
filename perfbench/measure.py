"""Rounds of sampling jobs, their output checks, and the metrics they yield.

A run builds the deployment several times (``setup_s`` is the median), then
drives rounds with tracing off: at least one full cycle, and more until
``--seconds`` have passed.  A traced run instead follows the untraced cycle
with traced rounds of ``TRACED_SLOTS``; the per-layer metrics come from
those, and the untraced rounds of the same slots give the tracing overhead.

All load is closed-loop: a job issues its next query only after the previous
reply, and one ``run_all`` scheduler thread drives every job of a round.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.backends.adapters import QueryEngineBackend, build_returned_tuple
from repro.backends.layers import UnreliableLayer
from repro.core.session import SessionState
from repro.database.engine import QueryEngine, QueryOutcome
from repro.database.interface import CountMode, InterfaceResponse, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.scenarios.scorers import uniformity_gates
from repro.web.compress import DEFAULT_COMPRESS_THRESHOLD, decompress, maybe_compress
from repro.web.jsoncodec import response_from_dict, response_to_dict

from hostspeed import SpeedProbe
from stats import job_gaps, median, percentile, ratio
from tracing import Tracer, self_times, subtree_self_residuals
from workloads import TOP_K, Deployment, Workload, deploy, generate_rows

#: Deployments built per run (``setup_s`` is their median): at least
#: ``MIN_SETUPS``, then more while they took under ``SETUP_BUDGET_S`` in total.
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 2.0
#: Round slots a traced run traces.  Slot 0 is left out: as the first round
#: after set-up it is the least representative untraced reference.
TRACED_SLOTS = (1, 2)
#: Recorded queries per run re-answered by the full-scan oracle.
ORACLE_QUERIES = 8
#: Recorded queries (and responses) per traced run replayed through the
#: engine's entry points and through the wire codec.
REPLAY_QUERIES = 200
#: Largest tolerated "self times add up to the step" residual, seconds.
MAX_STEP_RESIDUAL_S = 1e-6

clock = time.perf_counter


@dataclass
class RoundResult:
    """What one round measured, plus what the checks and replays need."""

    slot: int
    #: Wall and CPU seconds of ``run_all``, probing time taken out.
    wall_s: float
    cpu_s: float
    #: Host speed factor during the round (see :mod:`hostspeed`).
    speed: float
    samples: list
    gaps_s: list[float]
    queries: int
    failed: int
    counters: dict[str, float]
    entries: list[dict]
    errors: list[str] = field(default_factory=list)


def _wire_counters(deployment: Deployment) -> dict[str, int]:
    """Transport counters of the remote path (empty on local workloads)."""
    if deployment.server is None:
        return {}
    pool = deployment.backend.raw.pool_statistics
    served = deployment.server.wire_statistics()
    return {
        "connections_opened": pool["opened"],
        "connections_reused": pool["reused"],
        "requests_served": served["requests_served"],
        "compressed_responses": served["compressed_responses"],
    }


def _fault_counters(deployment: Deployment) -> tuple[int, int]:
    """(failed attempts, retries) seen by the client's retry layer.

    Every attempt that failed on the remote path was either retried or given
    up on; the in-process path has no retry layer and raises instead.
    """
    layer = deployment.backend.layer(UnreliableLayer)
    if layer is None:
        return 0, 0
    snapshot = layer.snapshot()
    return snapshot.retries + snapshot.gave_up, snapshot.retries


def instrument(tracer: Tracer, deployment: Deployment, service, jobs) -> None:
    """Wrap the public entry points of every layer this round runs through."""
    for job in jobs:
        session = job.session
        generator = session.generator
        tracer.wrap(job, "step", "core.step", new_trace=True)
        tracer.wrap(generator, "next_candidate", "core.generator")
        tracer.wrap(session.processor, "process", "core.processor")
        tracer.wrap(session.output, "add", "core.output")
        tracer.wrap(generator.scoped, "submit", "core.scope")
        tracer.wrap(generator.sampler, "draw_candidate", "algorithms.draw")
        tracer.wrap(generator.sampler, "acceptance_probability", "algorithms.accept")
        if generator.history is not None:
            tracer.wrap(generator.history, "submit", "history.job")
    tracer.wrap(service.shared_history(), "submit", "history.shared")
    client = deployment.backend
    tracer.wrap(client, "submit", "stack.BackendStack")
    for layer in client.layers:
        tracer.wrap(layer, "submit", f"stack.{type(layer).__name__}")
    if deployment.server is None:
        tracer.wrap(client.raw, "submit", "engine.submit")
    else:
        tracer.wrap(client.raw, "submit", "remote.submit")
        tracer.wrap(deployment.server.backend, "submit", "web.server_backend")
        tracer.wrap(deployment.engine.raw, "submit", "engine.submit")


def run_round(
    deployment: Deployment,
    workload: Workload,
    seed: int,
    slot: int,
    probe: SpeedProbe,
    tracer: Tracer | None = None,
    keep_entries: bool = False,
) -> RoundResult:
    """Drive one round of jobs to completion and account for it.

    The host-speed ``probe`` runs before and after the round and between
    scheduler rounds.  ``keep_entries`` keeps the
    shared history's recorded queries and responses (what reached the
    backend) for the oracle check and replays.
    """
    service = deployment.new_service()
    jobs = [service.submit(workload.job_config(seed, slot, index)) for index in range(workload.jobs)]
    stamps: list[tuple[str, float]] = []

    def recorder(job_id: str) -> Callable:
        def on_progress(event) -> None:
            if event.last_sample is not None:
                stamps.append((job_id, probe.now()))

        return on_progress

    for job in jobs:
        job.on_progress(recorder(job.job_id))
    scheduler_rounds = 0

    def on_round(number: int) -> None:
        nonlocal scheduler_rounds
        scheduler_rounds = number
        probe.maybe_run()

    queries_before = deployment.backend.statistics_snapshot().queries_issued
    failed_before, retries_before = _fault_counters(deployment)
    wire_before = _wire_counters(deployment)
    if tracer is not None:
        instrument(tracer, deployment, service, jobs)
        # Probing gets a span of its own, so no layer's self time absorbs it.
        tracer.wrap(probe, "run", "bench.probe")
    gc.collect()
    first_probe = len(probe.durations)
    probe.run()

    probe_cpu = probe.spent_cpu_s
    start_cpu = time.process_time()
    start = probe.now()
    if tracer is not None:
        with tracer.span("service.run_all"):
            service.run_all(on_round=on_round)
    else:
        service.run_all(on_round=on_round)
    wall = probe.now() - start
    cpu = time.process_time() - start_cpu - (probe.spent_cpu_s - probe_cpu)
    probe.run()

    if tracer is not None:
        tracer.unwrap_all()
    queries = deployment.backend.statistics_snapshot().queries_issued - queries_before
    failed_after, retries_after = _fault_counters(deployment)
    wire_after = _wire_counters(deployment)
    errors = []
    samples = []
    counters: Counter = Counter()
    for job in jobs:
        if job.state is not SessionState.COMPLETED or job.samples_collected != workload.samples_per_job:
            errors.append(
                f"slot {slot} {job.job_id}: ended {job.state_label} with "
                f"{job.samples_collected}/{workload.samples_per_job} samples"
            )
        samples.extend(job.output.samples)
        session = job.session
        report = session.generator.report
        processor = session.processor.statistics
        counters["attempts"] += session.attempts
        counters["candidates"] += report.candidates_generated
        counters["failed_walks"] += report.failed_walks
        counters["submissions"] += report.queries_issued
        counters["candidates_seen"] += processor.candidates_seen
        counters["accepted"] += processor.accepted
        history = session.generator.history
        if history is not None:
            counters["job_history_submissions"] += history.statistics.submissions
            counters["job_history_issued"] += history.statistics.issued_to_interface
    shared = service.shared_history()
    counters["shared_history_submissions"] = shared.statistics.submissions
    counters["shared_history_issued"] = shared.statistics.issued_to_interface
    counters["scheduler_rounds"] = scheduler_rounds
    counters["retries"] = retries_after - retries_before
    for name, value in wire_after.items():
        counters[name] = value - wire_before[name]
    failed = failed_after - failed_before
    return RoundResult(
        slot=slot,
        wall_s=wall,
        cpu_s=cpu,
        speed=probe.factor(first_probe),
        samples=samples,
        gaps_s=job_gaps(stamps, {job.job_id: start for job in jobs}),
        queries=queries,
        failed=failed,
        counters=dict(counters),
        entries=shared.export_entries() if keep_entries else [],
        errors=errors,
    )


# -- output checks ---------------------------------------------------------------


def _evenly_spaced(items: list, count: int) -> list:
    if len(items) <= count:
        return list(items)
    return [items[index * len(items) // count] for index in range(count)]


def response_from_entry(schema, entry: dict) -> InterfaceResponse:
    """Rebuild a recorded response from a history export entry."""
    return InterfaceResponse(
        query=ConjunctiveQuery.from_assignment(schema, entry["query"]),
        tuples=tuple(
            ReturnedTuple(
                tuple_id=item["tuple_id"],
                values=dict(item["values"]),
                selectable_values=dict(item["selectable_values"]),
            )
            for item in entry["tuples"]
        ),
        overflow=bool(entry["overflow"]),
        reported_count=entry.get("reported_count"),
        k=TOP_K,
    )


def oracle_errors(deployment: Deployment, workload: Workload, entries: list[dict]) -> list[str]:
    """Re-answer recorded queries with the full-scan engine; list mismatches.

    The comparison is page for page: the listed tuples in order (ids, raw
    and selectable values), the overflow flag and, where the form reports
    counts, the count.
    """
    table = deployment.table
    oracle = QueryEngineBackend(table, TOP_K, ranking=deployment.ranking, use_index=False)
    errors = []
    chosen = _evenly_spaced(entries, ORACLE_QUERIES)
    if not chosen:
        return ["no recorded queries to check against the scan oracle"]
    for entry in chosen:
        recorded = response_from_entry(table.schema, entry)
        expected = oracle.submit(recorded.query)
        same_page = (
            recorded.tuples == expected.tuples
            and recorded.overflow == expected.overflow
            and (
                workload.count_mode is not CountMode.EXACT
                or recorded.reported_count == expected.reported_count
            )
        )
        if not same_page:
            errors.append(f"scan oracle disagrees on query {entry['query']!r}")
    return errors


# -- replays (traced runs only) -----------------------------------------------------


def engine_replay(deployment: Deployment, responses: list[InterfaceResponse]) -> dict[str, float]:
    """Re-run recorded queries through the engine's entry points, timed apart."""
    table = deployment.table
    engine = QueryEngine(table, k=TOP_K, ranking=deployment.ranking)
    match_s = rank_s = build_s = 0.0
    matched = returned = overflow = empty = 0
    for response in responses:
        query = response.query
        t0 = clock()
        row_ids = engine.matching_row_ids(query)
        t1 = clock()
        result = engine.execute(query)
        t2 = clock()
        for row_id in result.returned_row_ids:
            build_returned_tuple(table, row_id)
        t3 = clock()
        match_s += t1 - t0
        rank_s += (t2 - t1) - (t1 - t0)
        build_s += t3 - t2
        matched += len(row_ids)
        returned += result.returned_count
        overflow += result.outcome is QueryOutcome.OVERFLOW
        empty += result.outcome is QueryOutcome.EMPTY
    count = len(responses)
    return {
        "engine.match_us_mean": ratio(match_s * 1e6, count),
        "engine.rank_us_mean": ratio(rank_s * 1e6, count),
        "engine.tuple_build_us_mean": ratio(build_s * 1e6, count),
        "engine.rows_matched_per_returned": ratio(matched, returned),
        "engine.overflow_ratio": ratio(overflow, count),
        "engine.empty_ratio": ratio(empty, count),
    }


def codec_replay(schema, responses: list[InterfaceResponse]) -> tuple[dict[str, float], list[str]]:
    """Encode and decode recorded responses the way the wire does."""
    encode_s = decode_s = 0.0
    wire_bytes = 0
    errors = []
    for response in responses:
        t0 = clock()
        body, encoding = maybe_compress(
            json.dumps(response_to_dict(response)).encode("utf-8"), DEFAULT_COMPRESS_THRESHOLD
        )
        t1 = clock()
        plain = decompress(body, encoding, 1 << 30)
        decoded = response_from_dict(schema, json.loads(plain.decode("utf-8")))
        t2 = clock()
        encode_s += t1 - t0
        decode_s += t2 - t1
        wire_bytes += len(body)
        if decoded.tuples != response.tuples or decoded.overflow != response.overflow:
            errors.append(f"codec round trip changed the page of {response.query!r}")
    count = len(responses)
    metrics = {
        "codec.encode_us_mean": ratio(encode_s * 1e6, count),
        "codec.decode_us_mean": ratio(decode_s * 1e6, count),
        "wire.response_bytes_mean": ratio(wire_bytes, count),
    }
    return metrics, errors


# -- metrics ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rate(result: RoundResult) -> float:
    """Accepted samples per reference second."""
    return len(result.samples) * result.speed / result.wall_s


def end_to_end_metrics(
    rounds: list[RoundResult], cycle: list[RoundResult], setup_s: list[float]
) -> dict[str, float]:
    """The user-visible metrics; times are in reference seconds (see
    :mod:`hostspeed`), each round scaled by its own speed factor."""
    gaps = [gap / result.speed for result in rounds for gap in result.gaps_s]
    cycle_samples = sum(len(result.samples) for result in cycle)
    return {
        "samples_per_s": median([_rate(r) for r in rounds]),
        "cpu_ms_per_sample": median([r.cpu_s * 1e3 / r.speed / len(r.samples) for r in rounds]),
        "sample_gap_ms_p50": percentile(gaps, 0.5) * 1e3,
        "sample_gap_ms_p90": percentile(gaps, 0.9) * 1e3,
        "queries_per_sample": sum(r.queries for r in cycle) / cycle_samples,
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def max_step_residual(tracer: Tracer) -> float:
    """Worst gap, in seconds, between a step's duration and its self times."""
    residuals = subtree_self_residuals(tracer.spans, "core.step")
    return max((abs(value) for value in residuals), default=0.0)


def _layer_sums(tracer: Tracer) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Durations per span name, and self time per span name."""
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        durations.setdefault(span.name, []).append(span.duration)
        selfs[span.name] = selfs.get(span.name, 0.0) + own
    return durations, selfs


def per_layer_metrics(
    tracer: Tracer,
    traced: list[RoundResult],
    untraced_same_slots: list[RoundResult],
) -> dict[str, float]:
    durations, selfs = _layer_sums(tracer)

    def self_ms(prefix: str) -> float:
        return sum(value for name, value in selfs.items() if name.startswith(prefix)) * 1e3

    def ms_percentile(name: str, fraction: float) -> float:
        values = durations.get(name, [])
        return percentile(values, fraction) * 1e3 if values else 0.0

    counters: Counter = Counter()
    for result in traced:
        counters.update(result.counters)
    samples = sum(len(result.samples) for result in traced)
    engine = durations.get("engine.submit", [])
    remote_s = sum(durations.get("remote.submit", []))
    served_s = sum(durations.get("web.server_backend", []))
    traced_rate = median([_rate(r) for r in traced])
    untraced_rate = median([_rate(r) for r in untraced_same_slots])
    return {
        "engine.queries": len(engine),
        "engine.submit_ms_p50": ms_percentile("engine.submit", 0.5),
        "engine.submit_ms_p90": ms_percentile("engine.submit", 0.9),
        "engine.busy_ms": sum(engine) * 1e3,
        "history.job.hit_ratio": 1.0 - ratio(counters["job_history_issued"], counters["job_history_submissions"]),
        "history.job.self_ms": self_ms("history.job"),
        "history.shared.hit_ratio": 1.0
        - ratio(counters["shared_history_issued"], counters["shared_history_submissions"]),
        "history.shared.self_ms": self_ms("history.shared"),
        "stack.self_ms": self_ms("stack."),
        "stack.retries": counters["retries"],
        "core.attempts": counters["attempts"],
        "core.step_ms_p50": ms_percentile("core.step", 0.5),
        "core.step_ms_p90": ms_percentile("core.step", 0.9),
        "core.self_ms": self_ms("core."),
        "core.acceptance_ratio": ratio(counters["accepted"], counters["candidates_seen"]),
        "core.candidate_ratio": ratio(counters["candidates"], counters["attempts"]),
        "algorithms.self_ms": self_ms("algorithms."),
        "algorithms.submissions_per_sample": ratio(counters["submissions"], samples),
        "algorithms.failed_walk_ratio": ratio(counters["failed_walks"], counters["attempts"]),
        "service.rounds": counters["scheduler_rounds"],
        "service.scheduler_self_ms": self_ms("service."),
        "remote.submit_ms_p50": ms_percentile("remote.submit", 0.5),
        "remote.submit_ms_p90": ms_percentile("remote.submit", 0.9),
        "remote.wire_ms": (remote_s - served_s) * 1e3 if remote_s else 0.0,
        "remote.connections_opened": counters["connections_opened"],
        "remote.connections_reused": counters["connections_reused"],
        "web.server_backend_ms": served_s * 1e3,
        "web.requests_served": counters["requests_served"],
        "web.compressed_responses": counters["compressed_responses"],
        "trace.overhead_ratio": ratio(untraced_rate, traced_rate),
        "trace.step_residual_us_max": max_step_residual(tracer) * 1e6,
    }


# -- one run ------------------------------------------------------------------------


@dataclass
class RunOutcome:
    metrics: dict[str, float]
    errors: list[str]
    attempted: int
    failed: int
    notes: list[str]


def _setup(workload: Workload, seed: int, probe: SpeedProbe) -> tuple[Deployment, list[float]]:
    """Build the deployment repeatedly; keep the last one and every timing.

    At least ``MIN_SETUPS`` builds, more while their total stays under
    ``SETUP_BUDGET_S``, so small deployments are timed often enough for a
    steady median.  Each timing is in reference seconds, scaled by probes
    run just before and after the build.  Row generation happens once,
    before any timing.
    """
    schema, rows = generate_rows(workload, seed)
    timings: list[float] = []
    raw_total = 0.0
    while True:
        first_probe = len(probe.durations)
        probe.run()
        start = clock()
        deployment = deploy(workload, schema, rows)
        elapsed = clock() - start
        probe.run()
        raw_total += elapsed
        timings.append(elapsed / probe.factor(first_probe))
        if len(timings) >= MAX_SETUPS or (
            len(timings) >= MIN_SETUPS and raw_total >= SETUP_BUDGET_S
        ):
            return deployment, timings
        deployment.close()
        del deployment
        gc.collect()


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> RunOutcome:
    """One benchmark run of ``workload``: set-up, rounds, checks, metrics."""
    probe = SpeedProbe()
    deployment, setup_s = _setup(workload, seed, probe)
    try:
        rounds: list[RoundResult] = []
        start = clock()
        while len(rounds) < workload.cycle or (not trace and clock() - start < seconds):
            slot = len(rounds) % workload.cycle
            rounds.append(run_round(deployment, workload, seed, slot, probe, keep_entries=not rounds))
        tracer = Tracer()
        traced = [
            run_round(deployment, workload, seed, slot, probe, tracer=tracer, keep_entries=True)
            for slot in (TRACED_SLOTS if trace else ())
        ]
        return _outcome(deployment, workload, rounds, traced, tracer, setup_s)
    finally:
        deployment.close()


def _outcome(
    deployment: Deployment,
    workload: Workload,
    rounds: list[RoundResult],
    traced: list[RoundResult],
    tracer: Tracer,
    setup_s: list[float],
) -> RunOutcome:
    cycle = rounds[: workload.cycle]
    errors = [error for result in rounds + traced for error in result.errors]
    cycle_samples = [sample for result in cycle for sample in result.samples]
    # The scenario harness's uniformity gate: per scored marginal, chi-square
    # significance or a skew index chi2/n within 0.25.
    gates, uniformity = uniformity_gates(cycle_samples, deployment.table)
    misses = [
        f"uniformity gate {gate.name} missed: {gate.value} vs {gate.threshold}"
        for gate in gates
        if not gate.passed
    ]
    degraded = [] if workload.uniformity_hard else misses
    if workload.uniformity_hard:
        errors.extend(misses)
    errors.extend(oracle_errors(deployment, workload, rounds[0].entries))
    attempted = sum(result.queries + result.failed for result in rounds + traced)
    failed = sum(result.failed for result in rounds + traced)
    raw_rates = [len(r.samples) / r.wall_s for r in rounds]
    notes = [
        f"times in reference seconds; median host speed factor "
        f"{median([r.speed for r in rounds]):.3f}, raw samples_per_s {median(raw_rates):.4f}",
        f"{len(setup_s)} set-ups; {len(rounds)} untraced rounds, "
        f"{sum(len(r.samples) for r in rounds)} samples, "
        f"{sum(len(r.gaps_s) for r in rounds)} sample gaps; counted metrics over the "
        f"first {len(cycle)} rounds ({len(cycle_samples)} samples)",
        *(f"DEGRADED (soft gate): {miss}" for miss in degraded),
    ]
    if not traced:
        metrics = end_to_end_metrics(rounds, cycle, setup_s)
        return RunOutcome(metrics, errors, attempted, failed, notes)

    residual = max_step_residual(tracer)
    if residual > MAX_STEP_RESIDUAL_S:
        errors.append(f"self times along a step miss its duration by {residual * 1e6:.3f} us")
    untraced = [next(r for r in rounds if r.slot == t.slot) for t in traced]
    metrics = per_layer_metrics(tracer, traced, untraced)
    metrics["output.skew_chi2_per_n"] = uniformity["max_skew_index"]
    responses = [
        response_from_entry(deployment.table.schema, entry)
        for entry in _evenly_spaced([e for r in traced for e in r.entries], REPLAY_QUERIES)
    ]
    metrics.update(engine_replay(deployment, responses))
    codec_metrics, codec_errors = codec_replay(deployment.table.schema, responses)
    metrics.update(codec_metrics)
    errors.extend(codec_errors)
    notes.append(
        f"{len(traced)} traced rounds (slots {', '.join(str(t.slot) for t in traced)}), "
        f"{len(tracer.spans)} spans, {len(responses)} responses replayed"
    )
    return RunOutcome(metrics, errors, attempted, failed, notes)
