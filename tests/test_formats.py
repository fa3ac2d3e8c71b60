"""Tests for family ingestion and its `substitute` block, and for matrix
ingestion."""

from fractions import Fraction

import pytest

import eulerdisc.symcore as symcore
from eulerdisc.errors import InputError
from eulerdisc.formats import ingest_family, ingest_matrix
from eulerdisc.symcore import VarTable, parse

ROWS = [["w1+w2", "1", "0"], ["1", "w2+w3", "w3"]]


def family(substitute, entries=ROWS, params=("w1", "w2", "w3")):
    doc = {"k": 1, "params": list(params), "entries": entries}
    if substitute is not None:
        doc["substitute"] = substitute
    return ingest_family(doc)


class TestSubstitute:
    def test_must_be_a_mapping(self):
        with pytest.raises(InputError, match="^substitute must be a mapping of name: expression$"):
            family(["w3", "-w1-w2"])

    def test_unknown_name(self):
        with pytest.raises(InputError, match="^substitute: unknown variable 'q'$"):
            family({"q": "w1"})

    def test_eliminates_every_variable(self):
        with pytest.raises(InputError, match="^substitute eliminates every variable$"):
            family({"w1": "1", "w2": "2", "w3": "3"})

    @pytest.mark.parametrize("expr, detail", [
        ("w1+", "expected a number, variable or parenthesis (at position 3)"),
        # an image is over the kept variables: it may not name an eliminated one
        ("w3+1", "unknown variable 'w3' (at position 0)"),
        ("w1 w2", "trailing input (at position 3)"),
    ])
    def test_bad_expression(self, expr, detail):
        with pytest.raises(InputError) as exc:
            family({"w3": expr})
        assert str(exc.value) == f"substitute entry 'w3': {detail}"

    def test_empty_block_changes_nothing(self):
        plain, empty = family(None), family({})
        assert empty.params == plain.params == VarTable(["w1", "w2", "w3"])
        assert empty.entries == plain.entries

    def test_eliminated_name_inside_power_and_product(self):
        fam = family({"w3": "-w1-w2"}, entries=[["w3^3*w1", "2*w3^2"], ["w1*(w3-w2)^2", "-w3"]])
        kept = VarTable(["w1", "w2"])
        assert fam.params == kept
        expected = [["(-w1-w2)^3*w1", "2*(-w1-w2)^2"], ["w1*(-w1-w2-w2)^2", "w1+w2"]]
        assert fam.entries == tuple(tuple(parse(s, kept) for s in row) for row in expected)

    def test_entry_with_unknown_name(self):
        with pytest.raises(InputError, match=r"^entries row 1, column 0: unknown variable 'q' \(at position 3\)$"):
            family({"w3": "-w1-w2"}, entries=[["w1", "w3"], ["w3+q", "1"]])

    def test_block_is_checked_before_the_entries(self):
        # a bad entry and a bad block: the block is read first, so it is
        # the one reported
        with pytest.raises(InputError, match="^substitute: unknown variable 'q'$"):
            family({"q": "w1"}, entries=[["w1+"], ["1"]])

    def test_each_text_is_parsed_once(self, monkeypatch):
        calls = []
        real = symcore.parse
        monkeypatch.setattr(symcore, "parse", lambda text, *a: calls.append(text) or real(text, *a))
        fam = family({"w3": "2-w1", "w2": "7"})
        assert fam.params == VarTable(["w1"])
        # one call per substitution, then one per entry; no call re-parses
        assert calls == ["2-w1", "7"] + [cell for row in ROWS for cell in row]
        assert fam.entries == tuple(
            tuple(parse(s, fam.params) for s in row)
            for row in [["w1+7", "1", "0"], ["1", "9-w1", "2-w1"]]
        )


class TestMatrix:
    @pytest.mark.parametrize("cell", ["1e5000", "2.5E3"])
    def test_exponent_notation_is_refused(self, cell):
        # Fraction would expand the exponent to all its digits
        with pytest.raises(InputError, match=f"^rows row 0, column 1: bad rational '{cell}'$"):
            ingest_matrix({"rows": [["1/2", cell]]})

    def test_rationals_are_read(self):
        assert ingest_matrix({"rows": [[1, "-3/4", "0.25"]]}) == [[1, Fraction(-3, 4), Fraction(1, 4)]]
