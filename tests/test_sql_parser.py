"""The SQL dialect's grammar, as ``Database.execute`` evaluates it.

Statement shapes (SELECT clauses, DML, DDL) and expression precedence the
repository's statements rely on, each checked by what the statement does.
"""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import ConstraintError, SQLError, SQLSyntaxError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
    return database


def value(db, expression, params=None):
    return db.execute(f"SELECT {expression}", params).scalar()


class TestSelectParsing:
    def test_simple_select(self, db):
        result = db.execute("SELECT a, b FROM t")
        assert result.columns == ["a", "b"]
        assert len(result) == 3

    def test_star(self, db):
        assert db.execute("SELECT * FROM t").columns == ["a", "b"]

    def test_table_star(self, db):
        assert db.execute("SELECT t.* FROM t").columns == ["a", "b"]

    def test_aliases_with_and_without_as(self, db):
        assert db.execute("SELECT a AS x, b y FROM t").columns == ["x", "y"]

    def test_quoted_alias(self, db):
        assert db.execute('SELECT 1 AS "Toll"').columns == ["Toll"]

    def test_table_alias(self, db):
        assert db.execute(
            "SELECT ais.a FROM t AS ais WHERE ais.a = 2"
        ).rows == [(2,)]

    def test_where_group_having_order_limit(self, db):
        db.execute("INSERT INTO t VALUES (4, 'x'), (5, 'y'), (6, 'z')")
        result = db.execute(
            "SELECT b, COUNT(*) FROM t WHERE a > 1 GROUP BY b "
            "HAVING COUNT(*) > 1 ORDER BY b DESC LIMIT 10 OFFSET 0"
        )
        assert result.rows == [("y", 2), ("x", 2)]

    def test_distinct(self, db):
        assert len(db.execute("SELECT DISTINCT b FROM t")) == 2

    def test_trailing_semicolon_ok(self, db):
        assert db.execute("SELECT 1;").scalar() == 1

    def test_trailing_garbage_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT 1 FROM t banana extra")


class TestDMLParsing:
    def test_insert(self, db):
        result = db.execute("INSERT INTO t (a, b) VALUES (7, 'p'), (8, 'q')")
        assert result.rowcount == 2

    def test_insert_or_replace(self, db):
        db.execute("CREATE TABLE k (a INTEGER PRIMARY KEY, b TEXT)")
        db.execute("INSERT INTO k VALUES (1, 'old')")
        db.execute("INSERT OR REPLACE INTO k (a, b) VALUES (1, 'new')")
        assert db.execute("SELECT b FROM k").rows == [("new",)]

    def test_replace_into(self, db):
        db.execute("CREATE TABLE k (a INTEGER PRIMARY KEY, b TEXT)")
        db.execute("INSERT INTO k VALUES (1, 'old')")
        db.execute("REPLACE INTO k (a, b) VALUES (1, 'new')")
        assert db.execute("SELECT b FROM k").rows == [("new",)]

    def test_insert_without_column_list(self, db):
        db.execute("INSERT INTO t VALUES (9, 'w')")
        assert db.execute("SELECT b FROM t WHERE a = 9").scalar() == "w"

    def test_update(self, db):
        assert db.execute(
            "UPDATE t SET a = a + 10, b = 'u' WHERE b = 'x'"
        ).rowcount == 2
        assert db.execute("SELECT a FROM t WHERE b = 'u' ORDER BY a").rows == [
            (11,), (13,)
        ]

    def test_delete(self, db):
        assert db.execute("DELETE FROM t WHERE a = 1").rowcount == 1


class TestDDLParsing:
    def test_create_table(self, db):
        db.execute(
            "CREATE TABLE s (a INTEGER NOT NULL, b REAL, c TEXT, "
            "PRIMARY KEY (a, b))"
        )
        assert db.execute("SELECT * FROM s").columns == ["a", "b", "c"]
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO s (b) VALUES (1.0)")
        db.execute("INSERT INTO s VALUES (1, 1.0, 'x')")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO s VALUES (1, 1.0, 'y')")

    def test_type_aliases_normalized(self, db):
        db.execute("CREATE TABLE s (a INT, b REAL, c VARCHAR, d BOOL)")
        db.execute("INSERT INTO s VALUES ('42', 1, 5, TRUE)")
        assert db.execute("SELECT * FROM s").rows == [(42, 1.0, "5", 1)]

    def test_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS t (z INTEGER)")
        assert db.execute("SELECT * FROM t").columns == ["a", "b"]

    def test_drop_table(self, db):
        db.execute("DROP TABLE IF EXISTS t")
        db.execute("DROP TABLE IF EXISTS t")
        db.execute("CREATE TABLE t (z INTEGER)")

    def test_create_index(self, db):
        db.execute("CREATE INDEX idx ON t (a, b)")
        assert db.explain("SELECT * FROM t WHERE a = 1 AND b = 'x'") == [
            "SEARCH t USING COVERING INDEX idx (a=? AND b=?)"
        ]

    def test_unknown_type_rejected(self, db):
        # Column types are checked in STRICT tables (the Linear Road ones).
        with pytest.raises(SQLError, match="unknown datatype"):
            db.execute("CREATE TABLE s (a WIBBLE) STRICT")


class TestExpressionParsing:
    def test_precedence_mul_over_add(self, db):
        assert value(db, "1 + 2 * 3") == 7

    def test_parentheses_override(self, db):
        assert value(db, "(1 + 2) * 3") == 9

    def test_and_binds_tighter_than_or(self, db):
        assert value(db, "1 OR 0 AND 0") == 1

    def test_not_prefix(self, db):
        # NOT (2 = 1), not (NOT 2) = 1.
        assert value(db, "NOT 2 = 1") == 1

    def test_comparison_normalizes_neq(self, db):
        assert db.execute("SELECT 1 != 2, 1 <> 2").rows == [(1, 1)]

    def test_qualified_column(self, db):
        assert db.execute(
            "SELECT ais.b FROM t AS ais WHERE ais.a = 3"
        ).scalar() == "x"

    def test_case_when_searched(self, db):
        assert db.execute(
            "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t "
            "ORDER BY a"
        ).rows == [("small",), ("big",), ("big",)]

    def test_case_with_operand(self, db):
        assert db.execute(
            "SELECT CASE a WHEN 1 THEN 'one' END FROM t ORDER BY a"
        ).rows == [("one",), (None,), (None,)]

    def test_case_needs_when(self, db):
        with pytest.raises(SQLSyntaxError):
            value(db, "CASE END")

    def test_in_list_and_negation(self, db):
        assert db.execute("SELECT 2 IN (1, 2), 2 NOT IN (1)").rows == [(1, 1)]

    def test_between(self, db):
        assert db.execute(
            "SELECT 3 BETWEEN 1 AND 5, 3 NOT BETWEEN 1 AND 5"
        ).rows == [(1, 0)]

    def test_is_null(self, db):
        assert db.execute("SELECT NULL IS NULL, 1 IS NOT NULL").rows == [
            (1, 1)
        ]

    def test_like(self, db):
        assert db.execute("SELECT 'xy' LIKE 'x%', 'xy' NOT LIKE 'x%'").rows == [
            (1, 0)
        ]

    def test_count_star(self, db):
        assert value(db, "COUNT(*) FROM t") == 3

    def test_count_distinct(self, db):
        assert value(db, "COUNT(DISTINCT b) FROM t") == 2

    def test_scalar_function(self, db):
        assert value(db, "POWER(a, 2) FROM t WHERE a = 3") == 9.0

    def test_unary_minus(self, db):
        # (-a) + 1, not -(a + 1).
        assert value(db, "-a + 1 FROM t WHERE a = 3") == -2

    def test_boolean_and_null_literals(self, db):
        assert db.execute("SELECT TRUE, FALSE, NULL").rows == [(1, 0, None)]

    def test_string_concat(self, db):
        assert value(db, "'a' || 'b'") == "ab"

    def test_scalar_subquery(self, db):
        assert value(db, "(SELECT COUNT(*) FROM t) = 3") == 1

    def test_exists_subquery(self, db):
        assert value(db, "EXISTS (SELECT 1 FROM t WHERE a = 2)") == 1

    def test_in_subquery(self, db):
        assert value(db, "2 IN (SELECT a FROM t)") == 1
