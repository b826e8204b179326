"""Unit tests for the in-memory table storage."""

import pytest

from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import DomainValueError, SchemaError, UnknownAttributeError


class TestValidation:
    def test_missing_searchable_column_is_rejected(self, tiny_schema):
        with pytest.raises(SchemaError):
            Table(tiny_schema, [{"make": "Toyota", "color": "red"}])

    def test_out_of_domain_categorical_is_rejected(self, tiny_schema):
        with pytest.raises(DomainValueError):
            Table(tiny_schema, [{"make": "Tesla", "color": "red", "price": 5_000.0}])

    def test_out_of_range_numeric_is_rejected(self, tiny_schema):
        with pytest.raises(DomainValueError):
            Table(tiny_schema, [{"make": "Ford", "color": "red", "price": 999_999.0}])

    def test_validate_false_skips_checks(self, tiny_schema):
        table = Table(tiny_schema, [{"make": "Tesla", "color": "red", "price": 1.0}], validate=False)
        assert len(table) == 1

    @pytest.mark.parametrize("cell", ["abc", None, [1.0]])
    def test_non_numeric_cell_in_numeric_column_is_a_domain_error(self, tiny_schema, cell):
        with pytest.raises(DomainValueError) as raised:
            Table(tiny_schema, [{"make": "Ford", "color": "red", "price": cell}])
        assert raised.value.attribute == "price"
        assert raised.value.value == cell

    @pytest.mark.parametrize(
        "rows",
        [
            # Row-major order meets row 0's price before row 1's make; an
            # attribute-at-a-time pass would meet the make first.
            [
                {"make": "Ford", "color": "red", "price": 999_999.0},
                {"make": "Tesla", "color": "red", "price": 5_000.0},
            ],
            [
                {"make": "Ford", "color": "red", "price": "abc"},
                {"make": "Ford", "color": "green", "price": 5_000.0},
                {"make": "Ford", "price": 5_000.0},
            ],
            [
                {"make": "Ford", "color": "red", "price": 5_000.0},
                {"make": "Ford", "color": "red"},
                {"make": "Tesla", "color": "red", "price": None},
            ],
            [
                {"make": "Ford", "color": "red", "price": 5_000.0},
                {"make": "Ford", "color": ["red"], "price": 5_000.0},
                {"make": "Tesla", "color": "red", "price": 5_000.0},
            ],
        ],
    )
    def test_several_bad_cells_report_the_row_major_first_error(self, tiny_schema, rows):
        with pytest.raises(SchemaError) as folded:
            Table(tiny_schema, rows)
        with pytest.raises(SchemaError) as row_major:
            Table(tiny_schema, rows, validate=False)._validate()
        assert type(folded.value) is type(row_major.value)
        assert str(folded.value) == str(row_major.value)


class TestAccess:
    def test_len_iter_getitem(self, tiny_table):
        assert len(tiny_table) == 8
        assert tiny_table[0]["make"] == "Toyota"
        assert sum(1 for _ in tiny_table) == 8

    def test_row_ids_match_positions(self, tiny_table):
        assert list(tiny_table.row_ids()) == list(range(8))

    def test_column_returns_searchable_and_hidden_columns(self, tiny_table):
        assert tiny_table.column("make")[0] == "Toyota"
        assert tiny_table.column("score")[0] == 10.0
        with pytest.raises(UnknownAttributeError):
            tiny_table.column("missing")

    def test_column_finds_hidden_columns_missing_from_the_first_row(self, tiny_schema):
        """A sparse hidden column exists if *any* row carries it; absent rows
        contribute ``None`` holes."""
        rows = [
            {"make": "Ford", "color": "red", "price": 5_000.0},
            {"make": "Honda", "color": "red", "price": 5_000.0, "note": "clean"},
        ]
        table = Table(tiny_schema, rows)
        assert table.column("note") == [None, "clean"]

    def test_column_on_empty_table_raises_for_non_searchable_names(self, tiny_schema):
        table = Table(tiny_schema, [])
        assert table.column("make") == []
        with pytest.raises(UnknownAttributeError):
            table.column("score")

    def test_selectable_row_translates_numeric_to_bucket_labels(self, tiny_table):
        selectable = tiny_table.selectable_row(tiny_table[0])
        assert selectable == {"make": "Toyota", "color": "red", "price": "0-10000"}

    def test_selectable_value_single_attribute(self, tiny_table):
        assert tiny_table.selectable_value("price", tiny_table[1]) == "10000-20000"


class TestDerivedTables:
    def test_select_filters_rows(self, tiny_table):
        toyota = tiny_table.select(lambda row: row["make"] == "Toyota")
        assert len(toyota) == 4
        assert all(row["make"] == "Toyota" for row in toyota)

    def test_matching_row_ids(self, tiny_table):
        ids = tiny_table.matching_row_ids(lambda row: row["color"] == "red")
        assert ids == [0, 2, 4, 6]

    def test_project_restricts_schema_but_keeps_hidden_columns(self, tiny_table):
        projected = tiny_table.project(["make"])
        assert projected.schema.attribute_names == ("make",)
        assert "score" in projected[0]
        assert "color" not in projected[0]

    def test_value_counts_ground_truth(self, tiny_table):
        counts = tiny_table.value_counts("make")
        assert counts == {"Toyota": 4, "Honda": 2, "Ford": 2}

    def test_value_counts_numeric_buckets(self, tiny_table):
        counts = tiny_table.value_counts("price")
        assert counts == {"0-10000": 3, "10000-20000": 2, "20000-40000": 3}

    def test_describe_contains_row_count(self, tiny_table):
        assert "8 rows" in tiny_table.describe()
