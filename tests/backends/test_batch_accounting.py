"""What one failed batch counts, whatever the stack it travels through.

``BackendStack.submit_many`` is the only place a batch raises: the layers
report per-item outcomes, so the items answered before (or beside) a
permanently refused one are counted, charged and cached exactly once — and
the same batch reads the same counters whether it runs plain, through the
history layer, or fanned out by a dispatch layer per query or per chunk.
"""

import pytest

from repro.backends import (
    BackendStack,
    BudgetLayer,
    DispatchLayer,
    HistoryLayer,
    QueryEngineBackend,
    StatisticsLayer,
)
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import FormParseError


class RefusesHonda:
    """A raw backend that permanently refuses every ``make=Honda`` query."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        if query.value_of("make") == "Honda":
            raise FormParseError("the form refuses this query")
        return self.inner.submit(query)


COMPOSITIONS = {
    "plain": [],
    "history": [HistoryLayer],
    "dispatch-parallel": [lambda inner: DispatchLayer(inner, max_workers=3)],
    "dispatch-batch": [lambda inner: DispatchLayer(inner, max_workers=2, batch_size=2)],
}


@pytest.mark.parametrize("composition", sorted(COMPOSITIONS))
def test_a_failed_batch_counts_its_answered_items(composition, tiny_table, tiny_schema):
    raw = RefusesHonda(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
    stack = BackendStack(raw, [BudgetLayer, StatisticsLayer, *COMPOSITIONS[composition]])
    queries = [
        ConjunctiveQuery.from_assignment(tiny_schema, {"make": make})
        for make in ("Toyota", "Honda", "Ford")
    ]
    with pytest.raises(FormParseError):
        stack.submit_many(queries)
    assert stack.statistics.queries_issued == 2  # the two answered items
    assert stack.budget.issued == 3  # every item was asked for
