"""Database schema and statements of the Linear Road workflow.

The toll SELECT below is the paper's query (Appendix A.3), with the
hard-coded scenario time ``330`` generalized to a ``$now`` parameter and
one correction: the accident subquery matches ``segmentStatistics.xway``.
The published ``ais.xway = xway`` binds the bare ``xway`` to ``ais`` itself
(the innermost scope), so an accident on any expressway zeroed the toll of
the same segment range on every other one.

The tables are ``STRICT``: a value that does not convert losslessly to its
column's type is refused with a :class:`~repro.sqldb.ConstraintError`.
"""

from __future__ import annotations

from ..sqldb import Database

SEGMENT_STATS_TABLE = """
CREATE TABLE IF NOT EXISTS segmentStatistics (
    xway INTEGER NOT NULL,
    seg INTEGER NOT NULL,
    dir INTEGER NOT NULL,
    LAV REAL,
    numOfCars INTEGER,
    PRIMARY KEY (xway, seg, dir)
) STRICT
"""

ACCIDENT_TABLE = """
CREATE TABLE IF NOT EXISTS accidentInSegment (
    xway INTEGER NOT NULL,
    direction INTEGER NOT NULL,
    segment INTEGER NOT NULL,
    position INTEGER NOT NULL,
    timestamp INTEGER NOT NULL
) STRICT
"""

ACCIDENT_INDEX = (
    "CREATE INDEX accident_by_road ON accidentInSegment (xway, direction)"
)

#: Appendix A.3 of the paper, parameterized on the scenario clock, with the
#: accident subquery correlated on the outer row's expressway.
TOLL_QUERY = """
SELECT CASE WHEN LAV < 40 AND numOfCars > 50 AND (
    SELECT COUNT(*) FROM accidentInSegment AS ais
    WHERE ais.xway = segmentStatistics.xway AND ais.direction = dir
      AND ((dir = 1 AND seg <= ais.segment + 4 AND seg >= ais.segment)
        OR (dir = 0 AND seg >= ais.segment - 4 AND seg <= ais.segment))
      AND ais.timestamp >= $now - 60
    ) = 0
THEN 2 * POWER((numOfCars - 50), 2) ELSE 0 END AS "Toll",
LAV, numOfCars
FROM `segmentStatistics`
WHERE xway = $xway AND seg = $segment AND dir = $direction
"""

ACCIDENT_AHEAD_QUERY = """
SELECT segment FROM accidentInSegment AS ais
WHERE ais.xway = $xway AND ais.direction = $direction
  AND (($direction = 1 AND $segment <= ais.segment + 4
        AND $segment >= ais.segment)
    OR ($direction = 0 AND $segment >= ais.segment - 4
        AND $segment <= ais.segment))
  AND ais.timestamp >= $now - 60
"""

INSERT_ACCIDENT = """
INSERT INTO accidentInSegment (xway, direction, segment, position, timestamp)
VALUES ($xway, $direction, $segment, $position, $timestamp)
"""

UPSERT_SEGMENT_ROW = """
INSERT OR REPLACE INTO segmentStatistics (xway, seg, dir, LAV, numOfCars)
VALUES ($xway, $seg, $dir, $lav, $cars)
"""

READ_SEGMENT_ROW = """
SELECT LAV, numOfCars FROM segmentStatistics
WHERE xway = $xway AND seg = $seg AND dir = $dir
"""

def create_linear_road_database(name: str = "linear-road") -> Database:
    """A fresh database with the Linear Road schema installed."""
    db = Database(name)
    db.execute(SEGMENT_STATS_TABLE)
    db.execute(ACCIDENT_TABLE)
    db.execute(ACCIDENT_INDEX)
    return db


def upsert_segment_statistics(
    db: Database,
    xway: int,
    segment: int,
    direction: int,
    lav: float | None = None,
    num_cars: int | None = None,
) -> None:
    """Merge one field of a segment's statistics row (read-modify-write)."""
    existing = db.execute(
        READ_SEGMENT_ROW, {"xway": xway, "seg": segment, "dir": direction}
    ).first()
    merged_lav = lav if lav is not None else (
        existing["LAV"] if existing else None
    )
    merged_cars = num_cars if num_cars is not None else (
        existing["numOfCars"] if existing else None
    )
    db.execute(
        UPSERT_SEGMENT_ROW,
        {
            "xway": xway,
            "seg": segment,
            "dir": direction,
            "lav": merged_lav,
            "cars": merged_cars,
        },
    )
