"""The event-loop remote client: raw-backend contract, stacks, equivalence.

:class:`~repro.backends.async_remote.AsyncRemoteBackend` must be a drop-in
sibling of the threaded ``RemoteBackend``: the sync facade satisfies the raw
backend contract for every existing layer, the ambient deadline crosses the
thread hop, breakers above the async transport open and fast-fail exactly as
over the threaded one, and a full sampling run through
``remote_stack(url, transport=AsyncRemoteBackend)`` — batched, compressed,
concurrent — reproduces the threaded run sample for sample on shared seeds.
"""

import asyncio
import threading
import time

import pytest

from repro.backends import (
    AsyncRemoteBackend,
    CircuitBreakerPolicy,
    Deadline,
    RemoteBackend,
    UnreliableLayer,
    deadline_scope,
    engine_stack,
    remote_stack,
)
from repro.core.config import HDSamplerConfig
from repro.database.interface import CountMode
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.datasets.vehicles import (
    VehiclesConfig,
    default_vehicles_ranking,
    generate_vehicles_table,
)
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueryBudgetExceededError,
    TransientBackendError,
)
from repro.service import SamplingService
from repro.web.aiohttpd import AsyncHiddenDatabaseHTTPServer
from repro.web.httpd import HiddenDatabaseHTTPServer


@pytest.fixture()
def served(tiny_table):
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    )


@pytest.fixture()
def server(served):
    with AsyncHiddenDatabaseHTTPServer(served) as endpoint:
        yield endpoint


def _queries(schema, count=10, seed=1):
    import random

    rng = random.Random(seed)
    queries = [ConjunctiveQuery.empty(schema)]
    for _ in range(count):
        assignment = {}
        for attribute in schema:
            if rng.random() < 0.5:
                assignment[attribute.name] = rng.choice(attribute.domain.values)
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


class TestSyncFacadeContract:
    def test_submit_matches_the_served_backend(self, server, served, tiny_schema):
        with AsyncRemoteBackend(server.url) as remote:
            for query in _queries(tiny_schema):
                assert remote.submit(query) == served.submit(query), str(query)

    def test_submit_outcomes_is_one_wire_round_trip(self, server, served, tiny_schema):
        queries = _queries(tiny_schema, count=8, seed=3)
        with AsyncRemoteBackend(server.url) as remote:
            before = server.requests_served
            assert remote.submit_outcomes(queries) == [served.submit(q) for q in queries]
            assert server.requests_served == before + 1
            assert remote.submit_outcomes([]) == []

    def test_submit_outcomes_carries_per_item_errors(self, tiny_table, tiny_schema):
        limited = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            budget=QueryBudget(limit=3), statistics=False,
        )
        queries = _queries(tiny_schema, count=5, seed=7)
        with AsyncHiddenDatabaseHTTPServer(limited, batch_workers=1) as endpoint:
            with AsyncRemoteBackend(endpoint.url) as remote:
                outcomes = remote.submit_outcomes(queries)
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        refused = [o for o in outcomes if isinstance(o, Exception)]
        assert len(answered) == 3
        assert refused and all(isinstance(o, QueryBudgetExceededError) for o in refused)

    def test_health_round_trips(self, server):
        with AsyncRemoteBackend(server.url) as remote:
            assert remote.health()["status"] == "ok"

    def test_facade_is_thread_safe(self, server, served, tiny_schema):
        # Many sampler threads sharing one facade (the shape a DispatchLayer
        # produces) must multiplex cleanly over the one private loop.
        from concurrent.futures import ThreadPoolExecutor

        queries = _queries(tiny_schema, count=30, seed=9)
        with AsyncRemoteBackend(server.url) as remote:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(remote.submit, queries))
        assert responses == [served.submit(q) for q in queries]


class TestLifecycleAndValidation:
    def test_non_http_url_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncRemoteBackend("ftp://example.com")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"pool_size": -1},
            {"connect_retries": -1},
            {"connect_backoff": -0.1},
            {"compress_threshold": -5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AsyncRemoteBackend("http://127.0.0.1:9", **kwargs)

    def test_dead_endpoint_fails_fast_without_leaking_the_facade_thread(self):
        def facade_threads():
            return sum(
                1 for t in threading.enumerate() if t.name == "async-remote-facade"
            )

        before = facade_threads()
        with pytest.raises(TransientBackendError):
            AsyncRemoteBackend("http://127.0.0.1:9", timeout=0.5)
        assert facade_threads() == before

    def test_use_after_close_is_a_configuration_error(self, server, tiny_schema):
        remote = AsyncRemoteBackend(server.url)
        remote.close()
        remote.close()  # idempotent
        with pytest.raises(ConfigurationError):
            remote.submit(ConjunctiveQuery.empty(tiny_schema))

    def test_pool_size_zero_disables_keep_alive(self, server, tiny_schema):
        with AsyncRemoteBackend(server.url, pool_size=0) as remote:
            for _ in range(3):
                remote.submit(ConjunctiveQuery.empty(tiny_schema))
            stats = remote.pool_statistics
        assert stats["opened"] == 4  # schema fetch + one per submit
        assert stats["reused"] == 0
        assert stats["idle"] == 0

    def test_stale_keep_alive_reconnects_transparently(self, served, tiny_schema):
        # The server reclaims the idle connection after 0.3s; the next submit
        # must notice the clean pre-response EOF on the *reused* socket and
        # re-send on a fresh connection instead of surfacing an error.
        with HiddenDatabaseHTTPServer(served, request_timeout=0.3) as endpoint:
            with AsyncRemoteBackend(endpoint.url) as remote:
                query = ConjunctiveQuery.empty(tiny_schema)
                expected = remote.submit(query)
                time.sleep(0.8)
                assert remote.submit(query) == expected
                assert remote.pool_statistics["stale_reconnects"] >= 1


class TestDeadlinesOverAsyncTransport:
    def test_expired_deadline_never_reaches_the_wire(self, server, tiny_schema):
        with AsyncRemoteBackend(server.url) as remote:
            before = server.requests_served
            with deadline_scope(Deadline.after(0.0)):
                with pytest.raises(DeadlineExceededError):
                    remote.submit(ConjunctiveQuery.empty(tiny_schema))
            assert server.requests_served == before

    def test_live_deadline_attaches_the_budget_and_serves(self, server, tiny_schema):
        with AsyncRemoteBackend(server.url) as remote:
            with deadline_scope(Deadline.after(30.0)):
                remote.submit(ConjunctiveQuery.empty(tiny_schema))
        assert server.deadline_shed == 0

    def test_deadline_crosses_into_native_coroutines(self, server, tiny_schema):
        # The async-native path reads the ambient deadline inside the loop.
        async def drive():
            with deadline_scope(Deadline.after(0.0)):
                with AsyncRemoteBackend(server.url) as remote:
                    with pytest.raises(DeadlineExceededError):
                        await remote.asubmit(ConjunctiveQuery.empty(tiny_schema))

        asyncio.run(drive())


class TestAsyncRemoteStack:
    def test_open_breaker_fast_fails_without_touching_the_wire(
        self, tiny_table, tiny_schema
    ):
        from repro.backends import BackendStack

        flaky = BackendStack(
            engine_stack(
                tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
            ).top,
            [lambda inner: UnreliableLayer(inner, max_retries=0, schedule=["transient"])],
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with AsyncHiddenDatabaseHTTPServer(flaky) as endpoint:
            stack = remote_stack(
                endpoint.url,
                transport=AsyncRemoteBackend,
                max_retries=0,
                breaker=CircuitBreakerPolicy(
                    window=4, failure_threshold=1, reset_timeout=60.0
                ),
            )
            with pytest.raises(TransientBackendError):
                stack.submit(query)  # real 503 over the async transport
            served_after_failure = endpoint.requests_served
            with pytest.raises(CircuitOpenError):
                stack.submit(query)  # breaker is open: no round-trip at all
            assert endpoint.requests_served == served_after_failure

    def test_retry_layer_recovers_real_429s_over_the_async_transport(
        self, tiny_table, tiny_schema
    ):
        from repro.backends import BackendStack

        chaotic = BackendStack(
            engine_stack(
                tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
            ).top,
            [lambda inner: UnreliableLayer(inner, max_retries=0, rate_limit_every=2)],
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with AsyncHiddenDatabaseHTTPServer(chaotic) as endpoint:
            stack = remote_stack(
                endpoint.url, max_retries=3, retry_backoff=0.0, transport=AsyncRemoteBackend
            )
            expected = stack.submit(query)
            for _ in range(7):
                assert stack.submit(query) == expected
            retry_layer = stack.layer(UnreliableLayer)
            assert retry_layer.statistics.backend_rate_limited > 0
            assert retry_layer.statistics.gave_up == 0


class TestEquivalenceWithThreadedTransport:
    def test_full_sampling_run_identical_across_transports(self):
        # The property the tier hangs on: same seeds, same samples, whether
        # the run went over the threaded client/server or the async pair with
        # batching, dispatch concurrency and forced response compression.
        table = generate_vehicles_table(VehiclesConfig(n_rows=600, seed=9))
        ranking = default_vehicles_ranking()
        config = HDSamplerConfig(n_samples=6, seed=4)
        served = engine_stack(table, 30, ranking=ranking, statistics=False)
        with HiddenDatabaseHTTPServer(served) as endpoint:
            threaded_result = SamplingService(endpoint.url).submit(config).run()
        with AsyncHiddenDatabaseHTTPServer(served, compress_threshold=1) as endpoint:
            stack = remote_stack(
                endpoint.url, parallel=4, batch=8, transport=AsyncRemoteBackend
            )
            async_result = SamplingService(stack).submit(config).run()
        assert [s.tuple_id for s in async_result.samples] == [
            s.tuple_id for s in threaded_result.samples
        ]
        assert async_result.queries_issued == threaded_result.queries_issued

    def test_batched_compressed_concurrent_answers_stay_byte_identical(
        self, tiny_table, tiny_schema
    ):
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            count_mode=CountMode.EXACT, statistics=False,
        )
        queries = _queries(tiny_schema, count=40, seed=13)
        expected = [served.submit(q) for q in queries]
        with AsyncHiddenDatabaseHTTPServer(served, compress_threshold=1) as endpoint:
            # One 40-query envelope clears the client's 1024-byte threshold.
            stack = remote_stack(
                endpoint.url, parallel=4, batch=40, transport=AsyncRemoteBackend
            )
            assert stack.submit_many(queries) == expected
            raw = stack.top
            while not isinstance(raw, AsyncRemoteBackend):
                raw = raw.inner
            counters = raw.compression_statistics
            # Batch envelopes cleared the threshold in both directions.
            assert counters["requests_compressed"] >= 1
            assert counters["responses_decompressed"] >= 1
