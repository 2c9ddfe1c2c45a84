"""The SQL dialect's lexical surface, as ``Database.execute`` accepts it.

Keywords, identifiers, literals, parameter markers, operators and comments
the repository's statements rely on (backticked and double-quoted names,
``$name`` / ``:name`` parameters), and the text it refuses.
"""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import SQLSyntaxError


@pytest.fixture
def db():
    return Database()


class TestTokenize:
    def test_keywords_uppercased(self, db):
        assert db.execute("select 1 as one").rows == [(1,)]

    def test_identifiers_keep_case(self, db):
        db.execute("CREATE TABLE t (segmentStats INTEGER)")
        assert db.execute("SELECT segmentStats FROM t").columns == [
            "segmentStats"
        ]

    def test_numbers_integer_and_float(self, db):
        assert db.execute("SELECT 42, 3.14, 1e5, 2.5E-3").rows == [
            (42, 3.14, 100000.0, 0.0025)
        ]

    def test_string_literal_with_escape(self, db):
        assert db.execute("SELECT 'it''s'").scalar() == "it's"

    def test_unterminated_string_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT 'oops")

    def test_backquoted_identifier(self, db):
        db.execute("CREATE TABLE `segment Statistics` (a INTEGER)")
        db.execute("INSERT INTO `segment Statistics` VALUES (7)")
        assert db.execute("SELECT a FROM `segment Statistics`").scalar() == 7

    def test_double_quoted_identifier(self, db):
        assert db.execute('SELECT 1 AS "Toll"').columns == ["Toll"]

    def test_parameters_both_markers(self, db):
        result = db.execute("SELECT $xway, :seg", {"xway": 3, "seg": 40})
        assert result.rows == [(3, 40)]

    def test_dangling_param_marker_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT $ 1")

    def test_two_char_operators(self, db):
        assert db.execute("SELECT 1 <> 2, 2 >= 3, 2 <= 3, 1 != 1").rows == [
            (1, 0, 1, 0)
        ]

    def test_line_comments_skipped(self, db):
        assert db.execute("SELECT 1 -- comment\n+ 2").scalar() == 3

    def test_unexpected_character_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT ^")

    def test_eof_token_terminates(self, db):
        # Empty text is no statement: nothing runs, nothing is returned.
        result = db.execute("")
        assert (result.columns, result.rows) == ([], [])

    def test_positions_recorded(self, db):
        with pytest.raises(SQLSyntaxError, match='near "extra"'):
            db.execute("SELECT 1 FROM t banana extra")
