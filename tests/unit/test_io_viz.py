"""Unit tests for serialization and chain rendering."""

from fractions import Fraction

import pytest

from repro.constraints import ConstraintSet, parse_constraints
from repro.core.generators import PreferenceGenerator, UniformGenerator
from repro.db.facts import Database, Fact
from repro.io import (
    database_from_json,
    database_to_json,
    load_constraints,
    load_database,
    load_database_csv,
    save_constraints,
    save_database,
    save_database_csv,
)
from repro.viz import chain_to_ascii, chain_to_dot, distribution_table


@pytest.fixture
def db():
    return Database.from_tuples({"R": [("a", "b"), ("c", "d")], "S": [("e",)]})


class TestJSON:
    def test_roundtrip(self, db):
        assert database_from_json(database_to_json(db)) == db

    def test_file_roundtrip(self, db, tmp_path):
        path = tmp_path / "db.json"
        save_database(db, path)
        assert load_database(path) == db

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            database_from_json("[1, 2, 3]")

    @pytest.mark.parametrize(
        "cell",
        ["null", '["z"]', '{"z": 1}', "NaN", "Infinity", str(1 << 63)],
    )
    def test_load_refuses_a_cell_no_fact_can_hold(self, tmp_path, cell):
        path = tmp_path / "db.json"
        path.write_text('{"R": [["a", 1], [%s, "b"]]}' % cell)
        with pytest.raises(ValueError, match=r"'database\.R' cell"):
            load_database(path)

    def test_load_keeps_every_cell_a_fact_can_hold(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"R": [["a", %d, -1.5, true]]}' % ((1 << 63) - 1))
        assert load_database(path) == Database(
            [Fact("R", ("a", (1 << 63) - 1, -1.5, True))]
        )

    def test_deterministic_output(self, db):
        assert database_to_json(db) == database_to_json(db)


class TestCSV:
    def test_roundtrip(self, db, tmp_path):
        save_database_csv(db, tmp_path / "data")
        assert load_database_csv(tmp_path / "data") == db

    def test_one_file_per_relation(self, db, tmp_path):
        save_database_csv(db, tmp_path / "data")
        names = sorted(p.name for p in (tmp_path / "data").glob("*.csv"))
        assert names == ["R.csv", "S.csv"]


class TestConstraintFiles:
    def test_roundtrip(self, tmp_path):
        sigma = ConstraintSet(
            parse_constraints(
                "R(x, y), R(x, z) -> y = z\nR(x, y) -> exists w S(w, x)"
            )
        )
        path = tmp_path / "sigma.txt"
        save_constraints(sigma, path)
        assert load_constraints(path) == sigma


class TestRendering:
    def test_ascii_contains_probabilities(self, paper_pref_db, pref_sigma):
        chain = PreferenceGenerator(pref_sigma).chain(paper_pref_db)
        text = chain_to_ascii(chain, strip_relation="Pref")
        assert "ε" in text
        assert "[2/9] -(a, b)" in text
        assert "[3/4] -(c, a)" in text

    def test_dot_is_valid_graphviz_shape(self, paper_pref_db, pref_sigma):
        chain = PreferenceGenerator(pref_sigma).chain(paper_pref_db)
        dot = chain_to_dot(chain, strip_relation="Pref")
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert 'label="2/9"' in dot

    def test_uniform_chain_renders(self, key_db, key_sigma):
        chain = UniformGenerator(key_sigma).chain(key_db)
        text = chain_to_ascii(chain)
        assert "[1/3]" in text

    def test_distribution_table(self):
        table = distribution_table([("x", Fraction(1, 2)), ("y", Fraction(1, 4))])
        assert "repair" in table
        assert "1/2 (0.5000)" in table

    def test_empty_distribution_table(self):
        table = distribution_table([])
        assert "repair" in table
