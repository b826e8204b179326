"""Raw-backend adapters: the two concrete access paths of the reproduction.

* :class:`QueryEngineBackend` — the direct in-process path: evaluate the
  query on a :class:`~repro.database.engine.QueryEngine` and list the
  result rows on a :class:`~repro.database.interface.ResultPage` that
  renders each :class:`~repro.database.interface.ReturnedTuple` on read.
* :class:`WebPageBackend` — the scraping path: encode the query as a form
  submission against a :class:`~repro.web.server.HiddenWebSite`, fetch the
  result page and parse the listed tuples back out of the HTML.

Both adapters answer the bare conjunctive-query contract and nothing else:
no budget, no statistics, no count shaping, no caching — those are layers
(:mod:`repro.backends.layers`, :mod:`repro.backends.history`).  The engine
adapter therefore always reports the *exact* match count
(:class:`~repro.backends.layers.CountModeLayer` decides what the client may
see); the web adapter reports whatever count the page displays, because on
the scraping path count shaping already happened server-side.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.database.engine import QueryEngine, QueryOutcome, QueryResult
from repro.database.interface import InterfaceResponse, ResultPage, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction
from repro.database.schema import Attribute, AttributeKind, Schema, Value
from repro.database.table import Table
from repro.exceptions import FormParseError, WebFormError
from repro.web.form_parser import FormDescription, ParsedResultRow, parse_form_page, parse_result_page
from repro.web.urlcodec import result_page_path

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.web.server import HiddenWebSite


def build_returned_tuple(
    table: Table, row_id: int, display_columns: Sequence[str] = ()
) -> ReturnedTuple:
    """Render one table row the way a result page displays it.

    Selectable values come from the table index's code columns, which binned
    every cell once at build time.
    """
    row = table[row_id]
    values: dict[str, Value] = {
        attribute.name: row[attribute.name] for attribute in table.schema
    }
    for column in display_columns:
        if column in row:
            values[column] = row[column]
    selectable = table.index.selectable_row(row_id)
    return ReturnedTuple(tuple_id=row_id, values=values, selectable_values=selectable)


def render_page(
    table: Table, row_ids: Sequence[int], display_columns: Sequence[str] = ()
) -> ResultPage:
    """The result page listing ``row_ids``, each row rendered on first read.

    A table with cells outside their domain (built with ``validate=False``)
    renders its pages at once, so a bad row fails the submit that lists it
    rather than whoever reads the page first.
    """
    page = ResultPage(
        row_ids, partial(build_returned_tuple, table, display_columns=display_columns), table.index
    )
    if table.index.has_unbinnable:
        tuple(page)
    return page


class QueryEngineBackend:
    """The direct in-process access path, stripped to the raw contract.

    Parameters mirror the engine: the hidden ``table``, the top-``k`` display
    limit, the proprietary ``ranking`` and the extra non-searchable
    ``display_columns`` shown on result pages.  ``use_index=False`` forces
    the naive full-scan evaluation (the equivalence oracle in tests).
    """

    def __init__(
        self,
        table: Table,
        k: int,
        ranking: RankingFunction | None = None,
        display_columns: Sequence[str] = (),
        use_index: bool = True,
    ) -> None:
        self._engine = QueryEngine(table, k=k, ranking=ranking, use_index=use_index)
        self._table = table
        self.display_columns = tuple(display_columns)

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema of the hidden table."""
        return self._table.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self._engine.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Evaluate ``query``; the reported count is always exact here."""
        return self._build_response(self._engine.execute(query))

    # -- operator-side helpers (not available to samplers) --------------------

    @property
    def table(self) -> Table:
        """The hidden table itself; for validation/ground truth only."""
        return self._table

    def true_count(self, query: ConjunctiveQuery) -> int:
        """Exact match count; for validation/ground truth only, never sampling."""
        return self._engine.count(query)

    # -- internals ------------------------------------------------------------

    def _build_response(self, result: QueryResult) -> InterfaceResponse:
        return InterfaceResponse(
            query=result.query,
            tuples=render_page(self._table, result.returned_row_ids, self.display_columns),
            overflow=result.outcome is QueryOutcome.OVERFLOW,
            reported_count=result.total_count,
            k=result.k,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryEngineBackend(table={self._table.name!r}, k={self.k})"


class WebPageBackend:
    """The HTML-scraping access path, stripped to the raw contract.

    Fetches the form page once to learn the fields and the advertised
    top-``k``, verifies the configured ``schema`` against them, then answers
    each ``submit`` by fetching and parsing the corresponding result page.
    """

    def __init__(
        self,
        site: "HiddenWebSite",
        schema: Schema,
        display_columns: Sequence[str] = (),
    ) -> None:
        self._site = site
        self._schema = schema
        self.display_columns = tuple(display_columns)
        self._form = self._fetch_form()
        self._verify_schema_against_form(self._form)
        k = self._form.top_k
        if k is None:
            raise WebFormError("the form page does not advertise a top-k limit")
        self._k: int = k

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema the client was configured with."""
        return self._schema

    @property
    def k(self) -> int:
        """Top-``k`` limit learned from the form page."""
        return self._k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Submit ``query`` by fetching and parsing the corresponding result page."""
        path = result_page_path(self._form.action, query)
        page = self._site.get(path)
        parsed = parse_result_page(page)
        tuples = tuple(self._to_returned_tuple(row) for row in parsed.rows)
        return InterfaceResponse(
            query=query,
            tuples=tuples,
            overflow=parsed.overflow,
            reported_count=parsed.reported_count,
            k=parsed.top_k if parsed.top_k is not None else self._k,
        )

    # -- schema discovery -----------------------------------------------------

    @classmethod
    def discover_schema(cls, site: "HiddenWebSite", name: str | None = None) -> Schema:
        """Build a text-only schema from the site's form page alone.

        Every field becomes a categorical attribute over its option strings.
        Useful for quickly pointing the sampler at an unknown source; precise
        typing (booleans, numeric buckets) still requires operator-provided
        configuration, as in the paper.
        """
        from repro.database.schema import Domain
        from repro.web.server import HiddenWebSite

        form = parse_form_page(site.get(HiddenWebSite.FORM_PATH))
        attributes = []
        for field in form.fields:
            options = field.selectable_options
            if not options:
                raise FormParseError(f"form field {field.name!r} offers no selectable options")
            attributes.append(Attribute(field.name, Domain.categorical(options)))
        return Schema(attributes, name=name or form.schema_name or "discovered")

    # -- internals ------------------------------------------------------------

    def _fetch_form(self) -> FormDescription:
        from repro.web.server import HiddenWebSite

        page = self._site.get(HiddenWebSite.FORM_PATH)
        return parse_form_page(page)

    def _verify_schema_against_form(self, form: FormDescription) -> None:
        form_fields = set(form.field_names)
        for attribute in self._schema:
            if attribute.name not in form_fields:
                raise WebFormError(
                    f"configured attribute {attribute.name!r} does not appear in the form "
                    f"(form fields: {', '.join(sorted(form_fields))})"
                )
            offered = set(form.field(attribute.name).selectable_options)
            for value in attribute.domain.values:
                if _value_to_option_text(value) not in offered:
                    raise WebFormError(
                        f"configured value {value!r} of attribute {attribute.name!r} is not "
                        "offered by the form"
                    )

    def _to_returned_tuple(self, row: ParsedResultRow) -> ReturnedTuple:
        values: dict[str, Value] = {}
        selectable: dict[str, Value] = {}
        for attribute in self._schema:
            text = row.values.get(attribute.name)
            if text is None:
                raise FormParseError(
                    f"result row {row.tuple_id} is missing column {attribute.name!r}"
                )
            raw = _parse_displayed_value(attribute, text)
            values[attribute.name] = raw
            selectable[attribute.name] = attribute.domain.selectable_value_for(raw)
        for column in self.display_columns:
            if column in row.values:
                values[column] = row.values[column]
        return ReturnedTuple(tuple_id=row.tuple_id, values=values, selectable_values=selectable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WebPageBackend(schema={self._schema.name!r}, k={self._k})"


def _value_to_option_text(value: Value) -> str:
    """Render a domain value the same way the form page renders its options."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _parse_displayed_value(attribute: Attribute, text: str) -> Value:
    """Convert a displayed cell back to a raw value for ``attribute``."""
    if attribute.kind is AttributeKind.BOOLEAN:
        lowered = text.strip().lower()
        if lowered in {"true", "1", "yes"}:
            return True
        if lowered in {"false", "0", "no"}:
            return False
        raise FormParseError(f"cannot parse boolean cell {text!r} for {attribute.name!r}")
    if attribute.kind is AttributeKind.NUMERIC:
        try:
            return float(text)
        except ValueError:
            raise FormParseError(f"cannot parse numeric cell {text!r} for {attribute.name!r}") from None
    # Categorical: preserve integer-valued categories (e.g. model year).
    if text in attribute.domain:
        return text
    try:
        as_int = int(text)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in attribute.domain:
        return as_int
    raise FormParseError(
        f"displayed value {text!r} is not in the domain of attribute {attribute.name!r}"
    )
