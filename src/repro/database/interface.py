"""The conjunctive web form interface contract, as seen by a sampler.

:class:`HiddenDatabaseInterface` is the *only* thing HDSampler is allowed to
talk to: submit a conjunctive query, get back at most ``k`` ranked tuples and
an overflow flag.  The class wraps a :class:`~repro.database.engine.QueryEngine`
and adds the client-visible realities of real hidden databases:

* an optional per-client :class:`~repro.database.limits.QueryBudget`;
* a configurable *count mode* — real interfaces report either no result count,
  an exact count, or (like Google Base) an approximate count produced by "some
  proprietary algorithm" that the paper's system deliberately ignores;
* bookkeeping of how many queries were issued and their outcomes, which is the
  efficiency side of every experiment.

The same contract is also implemented by
:class:`repro.web.client.WebFormClient`, which goes through rendered HTML
pages instead of calling the engine directly; samplers cannot tell the
difference, which is the point.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    overload,
    runtime_checkable,
)

from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction
from repro.database.schema import Schema, Value
from repro.database.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database.index import TableIndex


class CountMode(enum.Enum):
    """How (and whether) the interface reports the total number of matches."""

    NONE = "none"        #: the result page shows no count at all
    EXACT = "exact"      #: the true count is reported (used by count-aided sampling)
    NOISY = "noisy"      #: a perturbed count is reported (the Google Base situation)


@dataclass(frozen=True)
class ReturnedTuple:
    """One tuple as displayed on a result page.

    ``tuple_id`` is an opaque listing identifier (a URL or item id in real
    sites); samplers may use it only for de-duplication, never for enumeration.
    ``values`` holds the raw displayed values of the searchable attributes and
    any extra display columns; ``selectable_values`` maps searchable attributes
    to the form value (bucket label, category) they fall under.
    """

    tuple_id: int
    values: Mapping[str, Value]
    selectable_values: Mapping[str, Value]

    def value(self, attribute: str) -> Value:
        """Raw displayed value of ``attribute``."""
        return self.values[attribute]

    def matches(self, query: ConjunctiveQuery) -> bool:
        """Whether the listed selectable values satisfy every predicate of ``query``."""
        selectable = self.selectable_values
        for predicate in query.predicates:
            if selectable.get(predicate.attribute) != predicate.value:
                return False
        return True

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form, shared by the wire codec and checkpoints."""
        return {
            "tuple_id": self.tuple_id,
            "values": dict(self.values),
            "selectable_values": dict(self.selectable_values),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReturnedTuple":
        """Inverse of :meth:`to_dict`."""
        return cls(
            tuple_id=int(payload["tuple_id"]),
            values=dict(payload["values"]),
            selectable_values=dict(payload["selectable_values"]),
        )


class ResultPage(Sequence[ReturnedTuple]):
    """The listed tuples of one result page, rendered on first read.

    A drill-down walk reads only the length of an overflowing page and draws
    one tuple from a valid one, so the page holds its tuple ids and a
    ``render(tuple_id)`` callable and builds each :class:`ReturnedTuple` the
    first time its position is read.  ``len()`` and ``bool()`` render
    nothing; ``page[i]`` renders tuple ``i`` only; iterating renders the
    rest in one pass and from then on reads one cached plain tuple.  Slices
    return plain tuples.

    A page equals a ``tuple`` of equal tuples (in both directions) and any
    page with equal contents, never a ``list``; like a tuple of
    :class:`ReturnedTuple`\\ s it is unhashable.  Two threads reading the same
    unrendered position at once may both render it; the results are equal,
    and one of them is kept.

    ``index`` is the :class:`~repro.database.index.TableIndex` of the table
    the tuple ids are rows of, when there is one; :meth:`narrow` then picks
    matching rows off its code columns without rendering any.
    """

    __slots__ = ("_ids", "_render", "_index", "_rendered", "_all")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        tuple_ids: Sequence[int],
        render: Callable[[int], ReturnedTuple],
        index: "TableIndex | None" = None,
    ) -> None:
        self._ids = tuple(tuple_ids)
        self._render = render
        self._index = index
        self._rendered: dict[int, ReturnedTuple] = {}
        self._all: tuple[ReturnedTuple, ...] | None = None

    @property
    def tuple_ids(self) -> tuple[int, ...]:
        """The listed tuple ids in page order, read without rendering."""
        return self._ids

    def narrow(self, query: ConjunctiveQuery) -> "ResultPage":
        """The sub-page of tuples matching ``query``, in page order, same renderer.

        With an index nothing is rendered: the rows are picked off its code
        columns.  Without one every tuple is rendered and tested with
        :meth:`ReturnedTuple.matches`, and the sub-page keeps those renders.
        """
        if self._index is not None:
            return ResultPage(self._index.narrow(self._ids, query), self._render, self._index)
        kept = [
            (tuple_id, returned)
            for tuple_id, returned in zip(self._ids, self._materialise())
            if returned.matches(query)
        ]
        page = ResultPage([tuple_id for tuple_id, _ in kept], self._render)
        page._all = tuple(returned for _, returned in kept)
        return page

    def __len__(self) -> int:
        return len(self._ids)

    @overload
    def __getitem__(self, index: int) -> ReturnedTuple: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[ReturnedTuple, ...]: ...

    def __getitem__(self, index: int | slice) -> ReturnedTuple | tuple[ReturnedTuple, ...]:
        if self._all is not None:
            return self._all[index]
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self._ids))[index]))
        position = range(len(self._ids))[index]
        returned = self._rendered.get(position)
        if returned is None:
            returned = self._rendered[position] = self._render(self._ids[position])
        return returned

    def _materialise(self) -> tuple[ReturnedTuple, ...]:
        rendered = self._all
        if rendered is None:
            if self._rendered:
                rendered = tuple(map(self.__getitem__, range(len(self._ids))))
            else:
                rendered = tuple(map(self._render, self._ids))
            self._all = rendered
        return rendered

    def __iter__(self) -> Iterator[ReturnedTuple]:
        return iter(self._materialise())

    def iter_uncached(self) -> Iterator[ReturnedTuple]:
        """Iterate the tuples without keeping the renders on the page.

        For a one-off read of every row of a page that lives on, such as a
        history checkpoint export: a fully rendered page is read as is,
        otherwise every tuple is rendered afresh and left to the caller.
        """
        if self._all is not None:
            return iter(self._all)
        return map(self._render, self._ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultPage):
            return self._ids == other._ids and self._materialise() == other._materialise()
        if isinstance(other, tuple):
            return self._materialise() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ResultPage(tuple_ids={self._ids!r})"


@dataclass(frozen=True)
class InterfaceResponse:
    """Everything a client learns from submitting one query.

    ``tuples`` is a plain tuple or a lazily rendered :class:`ResultPage`;
    either way it is an immutable sequence of :class:`ReturnedTuple`\\ s.
    """

    query: ConjunctiveQuery
    tuples: Sequence[ReturnedTuple]
    overflow: bool
    reported_count: int | None
    k: int

    @property
    def empty(self) -> bool:
        """True when the result page listed no tuples."""
        return not self.tuples

    @property
    def valid(self) -> bool:
        """True when the query returned 1..k tuples without overflow."""
        return bool(self.tuples) and not self.overflow


@dataclass
class InterfaceStatistics:
    """Counters describing the interaction history with the interface."""

    queries_issued: int = 0
    empty_results: int = 0
    valid_results: int = 0
    overflow_results: int = 0
    tuples_returned: int = 0

    def record(self, response: InterfaceResponse) -> None:
        """Update the counters with one response."""
        listed = len(response.tuples)
        self.queries_issued += 1
        self.tuples_returned += listed
        if not listed:
            self.empty_results += 1
        elif response.overflow:
            self.overflow_results += 1
        else:
            self.valid_results += 1

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view used by reports and benchmarks."""
        return {
            "queries_issued": self.queries_issued,
            "empty_results": self.empty_results,
            "valid_results": self.valid_results,
            "overflow_results": self.overflow_results,
            "tuples_returned": self.tuples_returned,
        }


@runtime_checkable
class HiddenDatabase(Protocol):
    """Structural protocol every hidden-database access path implements.

    Both :class:`HiddenDatabaseInterface` (direct, in-process) and
    :class:`repro.web.client.WebFormClient` (through rendered HTML) satisfy
    this protocol, so samplers and the HDSampler core are written against it.
    """

    @property
    def schema(self) -> Schema:  # pragma: no cover - protocol declaration
        ...

    @property
    def k(self) -> int:  # pragma: no cover - protocol declaration
        ...

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:  # pragma: no cover
        ...


class HiddenDatabaseInterface:
    """Direct in-process implementation of the web form interface contract.

    Since the backend-stack refactor this class is a thin facade over the
    composable access path of :mod:`repro.backends`: a
    :class:`~repro.backends.adapters.QueryEngineBackend` under a
    :class:`~repro.backends.layers.CountModeLayer`, a
    :class:`~repro.backends.layers.BudgetLayer` and the single
    :class:`~repro.backends.layers.StatisticsLayer` of the path.  Its public
    contract — constructor signature, ``submit`` semantics, ``statistics``,
    ``budget``, count modes, operator-side helpers — is unchanged.

    Parameters
    ----------
    table:
        The hidden back-end table.
    k:
        Top-``k`` display limit of the interface.
    ranking:
        Proprietary ranking function; defaults to row-id order.
    count_mode:
        Whether result counts are absent, exact, or noisy.
    count_noise:
        Relative noise magnitude for :attr:`CountMode.NOISY` (0.3 means the
        reported count is uniform in ±30% of the truth).
    budget:
        Optional per-client query budget; exceeded budgets raise
        :class:`~repro.exceptions.QueryBudgetExceededError`.
    display_columns:
        Extra non-searchable columns shown on result pages (e.g. a title).
    seed:
        Seed for the count-noise generator.
    use_index:
        Forwarded to :class:`~repro.database.engine.QueryEngine`; false forces
        the naive full-scan evaluation (the equivalence oracle in tests).
    """

    def __init__(
        self,
        table: Table,
        k: int,
        ranking: RankingFunction | None = None,
        count_mode: CountMode = CountMode.NONE,
        count_noise: float = 0.3,
        budget: QueryBudget | None = None,
        display_columns: Sequence[str] = (),
        seed: int | random.Random | None = 0,
        use_index: bool = True,
    ) -> None:
        from repro.backends.stack import engine_stack

        self.stack = engine_stack(
            table,
            k,
            ranking=ranking,
            count_mode=count_mode,
            count_noise=count_noise,
            budget=budget,
            display_columns=display_columns,
            seed=seed,
            use_index=use_index,
        )

    # -- contract ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema advertised by the form."""
        return self.stack.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self.stack.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Submit one conjunctive query and return the visible result page.

        The budget layer charges before the engine executes; a budget
        violation leaves the database untouched and raises.
        """
        return self.stack.submit(query)

    # -- layer-backed accessors ----------------------------------------------

    @property
    def statistics(self) -> InterfaceStatistics:
        """Counters of the path's single statistics layer."""
        statistics = self.stack.statistics
        assert statistics is not None
        return statistics

    @property
    def budget(self) -> QueryBudget:
        """The per-client query budget charged on every submission."""
        budget = self.stack.budget
        assert budget is not None
        return budget

    @property
    def count_mode(self) -> CountMode:
        """How (and whether) result counts are reported."""
        return self._count_layer.mode

    @count_mode.setter
    def count_mode(self, mode: CountMode) -> None:
        self._count_layer.mode = mode

    @property
    def count_noise(self) -> float:
        """Relative noise magnitude used by :attr:`CountMode.NOISY`."""
        return self._count_layer.noise

    @property
    def display_columns(self) -> tuple[str, ...]:
        """Extra non-searchable columns shown on result pages."""
        return self.stack.raw.display_columns  # type: ignore[attr-defined]

    @property
    def _count_layer(self):
        layer = self.stack.count_mode_layer
        assert layer is not None
        return layer

    # -- operator-side helpers (not available to samplers) ----------------------

    def true_count(self, query: ConjunctiveQuery) -> int:
        """Exact match count; for validation/ground truth only, never sampling."""
        return self.stack.raw.true_count(query)  # type: ignore[attr-defined]

    @property
    def table(self) -> Table:
        """The hidden table itself; for validation/ground truth only."""
        return self.stack.raw.table  # type: ignore[attr-defined]

    def reset_statistics(self) -> None:
        """Clear interaction counters (budget is left untouched)."""
        from repro.backends.layers import StatisticsLayer

        layer = self.stack.layer(StatisticsLayer)
        assert layer is not None
        layer.reset()
