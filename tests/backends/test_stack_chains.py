"""Every preset's layer chain, pinned as text for each option combination.

Layer order decides what counts as an interface query (retries below budget
and statistics, the breaker below retries), so the chain each preset builds
is part of its contract.  ``describe()`` lists it outermost first; the count
mode does not show in it, so the count layer's mode is checked beside it.
Options in the table are flags: ``history``, ``nostats`` (``statistics=False``),
``exact`` (``count_mode=CountMode.EXACT``), ``parallel`` (``parallel=2``),
``batch`` (``batch=4``) and ``breaker`` (``breaker=True``).
"""

import pytest

from repro.backends import (
    QueryEngineBackend,
    engine_stack,
    failover_stack,
    remote_stack,
    sharded_stack,
    web_stack,
)
from repro.database.interface import CountMode
from repro.database.ranking import StaticScoreRanking
from repro.web.httpd import HiddenDatabaseHTTPServer
from repro.web.server import HiddenWebSite

FLAGS = {
    "history": {"history": True},
    "nostats": {"statistics": False},
    "exact": {"count_mode": CountMode.EXACT},
    "parallel": {"parallel": 2},
    "batch": {"batch": 4},
    "breaker": {"breaker": True},
}

CHAINS = [
    ("engine", "", "StatisticsLayer → BudgetLayer → CountModeLayer → QueryEngineBackend"),
    ("engine", "exact", "StatisticsLayer → BudgetLayer → CountModeLayer → QueryEngineBackend"),
    ("engine", "nostats", "BudgetLayer → CountModeLayer → QueryEngineBackend"),
    ("engine", "nostats exact", "BudgetLayer → CountModeLayer → QueryEngineBackend"),
    ("engine", "history", "HistoryLayer → StatisticsLayer → BudgetLayer → CountModeLayer → "
     "QueryEngineBackend"),
    ("engine", "history exact", "HistoryLayer → StatisticsLayer → BudgetLayer → CountModeLayer → "
     "QueryEngineBackend"),
    ("engine", "history nostats", "HistoryLayer → BudgetLayer → CountModeLayer → "
     "QueryEngineBackend"),
    ("engine", "history nostats exact", "HistoryLayer → BudgetLayer → CountModeLayer → "
     "QueryEngineBackend"),
    ("web", "", "StatisticsLayer → BudgetLayer → WebPageBackend"),
    ("web", "parallel", "DispatchLayer → StatisticsLayer → BudgetLayer → WebPageBackend"),
    ("web", "history", "HistoryLayer → StatisticsLayer → BudgetLayer → WebPageBackend"),
    ("web", "history parallel", "DispatchLayer → HistoryLayer → StatisticsLayer → BudgetLayer → "
     "WebPageBackend"),
    ("sharded", "", "StatisticsLayer → BudgetLayer → CountModeLayer → ShardRouter"),
    ("sharded", "parallel", "StatisticsLayer → BudgetLayer → CountModeLayer → "
     "ConcurrentShardRouter"),
    ("sharded", "exact", "StatisticsLayer → BudgetLayer → CountModeLayer → ShardRouter"),
    ("sharded", "exact parallel", "StatisticsLayer → BudgetLayer → CountModeLayer → "
     "ConcurrentShardRouter"),
    ("sharded", "nostats", "BudgetLayer → CountModeLayer → ShardRouter"),
    ("sharded", "nostats parallel", "BudgetLayer → CountModeLayer → ConcurrentShardRouter"),
    ("sharded", "nostats exact", "BudgetLayer → CountModeLayer → ShardRouter"),
    ("sharded", "nostats exact parallel", "BudgetLayer → CountModeLayer → ConcurrentShardRouter"),
    ("sharded", "history", "HistoryLayer → StatisticsLayer → BudgetLayer → CountModeLayer → "
     "ShardRouter"),
    ("sharded", "history parallel", "HistoryLayer → StatisticsLayer → BudgetLayer → "
     "CountModeLayer → ConcurrentShardRouter"),
    ("sharded", "history exact", "HistoryLayer → StatisticsLayer → BudgetLayer → CountModeLayer → "
     "ShardRouter"),
    ("sharded", "history exact parallel", "HistoryLayer → StatisticsLayer → BudgetLayer → "
     "CountModeLayer → ConcurrentShardRouter"),
    ("sharded", "history nostats", "HistoryLayer → BudgetLayer → CountModeLayer → ShardRouter"),
    ("sharded", "history nostats parallel", "HistoryLayer → BudgetLayer → CountModeLayer → "
     "ConcurrentShardRouter"),
    ("sharded", "history nostats exact", "HistoryLayer → BudgetLayer → CountModeLayer → "
     "ShardRouter"),
    ("sharded", "history nostats exact parallel", "HistoryLayer → BudgetLayer → CountModeLayer → "
     "ConcurrentShardRouter"),
    ("remote-sync", "", "StatisticsLayer → BudgetLayer → UnreliableLayer → RemoteBackend"),
    ("remote-sync", "breaker", "StatisticsLayer → BudgetLayer → UnreliableLayer → "
     "CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "batch", "DispatchLayer → StatisticsLayer → BudgetLayer → UnreliableLayer → "
     "RemoteBackend"),
    ("remote-sync", "batch breaker", "DispatchLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "parallel", "DispatchLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → RemoteBackend"),
    ("remote-sync", "parallel breaker", "DispatchLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "parallel batch", "DispatchLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → RemoteBackend"),
    ("remote-sync", "parallel batch breaker", "DispatchLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "nostats", "BudgetLayer → UnreliableLayer → RemoteBackend"),
    ("remote-sync", "nostats breaker", "BudgetLayer → UnreliableLayer → CircuitBreakerLayer → "
     "RemoteBackend"),
    ("remote-sync", "nostats batch", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "RemoteBackend"),
    ("remote-sync", "nostats batch breaker", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "nostats parallel", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "RemoteBackend"),
    ("remote-sync", "nostats parallel breaker", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "nostats parallel batch", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "RemoteBackend"),
    ("remote-sync", "nostats parallel batch breaker", "DispatchLayer → BudgetLayer → "
     "UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history", "HistoryLayer → StatisticsLayer → BudgetLayer → UnreliableLayer → "
     "RemoteBackend"),
    ("remote-sync", "history breaker", "HistoryLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history batch", "DispatchLayer → HistoryLayer → StatisticsLayer → "
     "BudgetLayer → UnreliableLayer → RemoteBackend"),
    ("remote-sync", "history batch breaker", "DispatchLayer → HistoryLayer → StatisticsLayer → "
     "BudgetLayer → UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history parallel", "DispatchLayer → HistoryLayer → StatisticsLayer → "
     "BudgetLayer → UnreliableLayer → RemoteBackend"),
    ("remote-sync", "history parallel breaker", "DispatchLayer → HistoryLayer → StatisticsLayer → "
     "BudgetLayer → UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history parallel batch", "DispatchLayer → HistoryLayer → StatisticsLayer → "
     "BudgetLayer → UnreliableLayer → RemoteBackend"),
    ("remote-sync", "history parallel batch breaker", "DispatchLayer → HistoryLayer → "
     "StatisticsLayer → BudgetLayer → UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history nostats", "HistoryLayer → BudgetLayer → UnreliableLayer → "
     "RemoteBackend"),
    ("remote-sync", "history nostats breaker", "HistoryLayer → BudgetLayer → UnreliableLayer → "
     "CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history nostats batch", "DispatchLayer → HistoryLayer → BudgetLayer → "
     "UnreliableLayer → RemoteBackend"),
    ("remote-sync", "history nostats batch breaker", "DispatchLayer → HistoryLayer → "
     "BudgetLayer → UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history nostats parallel", "DispatchLayer → HistoryLayer → BudgetLayer → "
     "UnreliableLayer → RemoteBackend"),
    ("remote-sync", "history nostats parallel breaker", "DispatchLayer → HistoryLayer → "
     "BudgetLayer → UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("remote-sync", "history nostats parallel batch", "DispatchLayer → HistoryLayer → "
     "BudgetLayer → UnreliableLayer → RemoteBackend"),
    ("remote-sync", "history nostats parallel batch breaker", "DispatchLayer → HistoryLayer → "
     "BudgetLayer → UnreliableLayer → CircuitBreakerLayer → RemoteBackend"),
    ("failover", "", "StatisticsLayer → BudgetLayer → UnreliableLayer → FailoverRouter"),
    ("failover", "batch", "DispatchLayer → StatisticsLayer → BudgetLayer → UnreliableLayer → "
     "FailoverRouter"),
    ("failover", "parallel", "DispatchLayer → StatisticsLayer → BudgetLayer → UnreliableLayer → "
     "FailoverRouter"),
    ("failover", "parallel batch", "DispatchLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → FailoverRouter"),
    ("failover", "nostats", "BudgetLayer → UnreliableLayer → FailoverRouter"),
    ("failover", "nostats batch", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "FailoverRouter"),
    ("failover", "nostats parallel", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "FailoverRouter"),
    ("failover", "nostats parallel batch", "DispatchLayer → BudgetLayer → UnreliableLayer → "
     "FailoverRouter"),
    ("failover", "history", "HistoryLayer → StatisticsLayer → BudgetLayer → UnreliableLayer → "
     "FailoverRouter"),
    ("failover", "history batch", "DispatchLayer → HistoryLayer → StatisticsLayer → BudgetLayer → "
     "UnreliableLayer → FailoverRouter"),
    ("failover", "history parallel", "DispatchLayer → HistoryLayer → StatisticsLayer → "
     "BudgetLayer → UnreliableLayer → FailoverRouter"),
    ("failover", "history parallel batch", "DispatchLayer → HistoryLayer → StatisticsLayer → "
     "BudgetLayer → UnreliableLayer → FailoverRouter"),
    ("failover", "history nostats", "HistoryLayer → BudgetLayer → UnreliableLayer → "
     "FailoverRouter"),
    ("failover", "history nostats batch", "DispatchLayer → HistoryLayer → BudgetLayer → "
     "UnreliableLayer → FailoverRouter"),
    ("failover", "history nostats parallel", "DispatchLayer → HistoryLayer → BudgetLayer → "
     "UnreliableLayer → FailoverRouter"),
    ("failover", "history nostats parallel batch", "DispatchLayer → HistoryLayer → BudgetLayer → "
     "UnreliableLayer → FailoverRouter"),
]


@pytest.fixture(scope="module")
def server(small_vehicles_table):
    with HiddenDatabaseHTTPServer(engine_stack(small_vehicles_table, 5, statistics=False)) as endpoint:
        yield endpoint


def build(preset, options, table, url):
    if preset == "engine":
        return engine_stack(table, 2, ranking=StaticScoreRanking(), **options)
    if preset == "web":
        site = HiddenWebSite(QueryEngineBackend(table, 2, ranking=StaticScoreRanking()))
        return web_stack(site, table.schema, **options)
    if preset == "sharded":
        return sharded_stack(table, 2, 2, ranking=StaticScoreRanking(), **options)
    if preset == "remote-sync":
        return remote_stack(url, **options)
    return failover_stack([url, url], **options)


@pytest.mark.parametrize(
    "preset, flags, chain",
    [pytest.param(*row, id=f"{row[0]}[{row[1]}]") for row in CHAINS],
)
def test_preset_chain(preset, flags, chain, tiny_table, server):
    options = {key: value for flag in flags.split() for key, value in FLAGS[flag].items()}
    stack = build(preset, options, tiny_table, server.url)
    try:
        assert stack.describe() == chain
        if stack.count_mode_layer is not None:
            exact = stack.count_mode_layer.mode is CountMode.EXACT
            assert exact == ("exact" in flags.split())
    finally:
        close = getattr(stack.raw, "close", None)
        if callable(close):
            close()
