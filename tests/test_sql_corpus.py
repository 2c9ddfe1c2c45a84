"""The recorded SQL corpus, replayed on :class:`repro.sqldb.Database`.

``tests/data/sql_corpus.json`` is the reference: sessions of statements
with the outcome the hand-written SQL engine gave each one (its ``about``
field says where they come from).  Replayed in order on a fresh database,
every statement must give that outcome again or, where the file records a
divergence, the divergence's outcome; every divergence says why.
"""

import json
from pathlib import Path

from repro.linearroad import db as lrdb
from repro.sqldb import Database
from repro.sqldb.errors import SQLError

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "sql_corpus.json").read_text()
)
SESSIONS = CORPUS["sessions"]


def outcome(db, sql, params):
    try:
        result = db.execute(sql, params)
    except SQLError as exc:
        return {"error": type(exc).__name__}
    return {
        "columns": result.columns,
        "rows": repr(result.rows),
        "rowcount": result.rowcount,
    }


def replay(session):
    """(index, expected, got) for every statement that misses."""
    db = (
        lrdb.create_linear_road_database()
        if session.get("database") == "linear_road"
        else Database()
    )
    misses = []
    for index, statement in enumerate(session["statements"]):
        expected = statement.get("divergence", statement)["outcome"]
        got = outcome(db, statement["sql"], statement["params"])
        if got != expected:
            misses.append((index, expected, got))
    return misses


def test_every_session_replays_as_recorded():
    misses = {
        session["name"]: found
        for session in SESSIONS
        if (found := replay(session))
    }
    assert not misses, f"{len(misses)} sessions diverge: {misses}"


def test_every_divergence_names_its_reason():
    divergences = [
        statement["divergence"]
        for session in SESSIONS
        for statement in session["statements"]
        if "divergence" in statement
    ]
    assert divergences
    for divergence in divergences:
        assert divergence["outcome"] and len(divergence["reason"]) > 20


def test_the_corpus_covers_every_linear_road_statement():
    texts = {
        statement["sql"]
        for session in SESSIONS
        for statement in session["statements"]
    }
    for name in ("TOLL_QUERY", "ACCIDENT_AHEAD_QUERY", "INSERT_ACCIDENT",
                 "UPSERT_SEGMENT_ROW", "READ_SEGMENT_ROW"):
        assert getattr(lrdb, name) in texts, name
