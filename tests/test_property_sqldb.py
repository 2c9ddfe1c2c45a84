"""Property-based tests: the SQL database against a naive Python oracle."""

from hypothesis import given, settings, strategies as st

from repro.sqldb import Database

row_strategy = st.tuples(
    st.integers(min_value=0, max_value=5),  # seg
    st.one_of(st.none(), st.integers(min_value=0, max_value=100)),  # speed
)
rows_strategy = st.lists(row_strategy, max_size=40)


def load(rows):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, seg INTEGER, speed INTEGER)")
    for index, (seg, speed) in enumerate(rows):
        db.execute(
            "INSERT INTO t VALUES ($id, $seg, $speed)",
            {"id": index, "seg": seg, "speed": speed},
        )
    return db


class TestSelectOracle:
    @given(rows_strategy, st.integers(min_value=0, max_value=5))
    @settings(max_examples=60)
    def test_where_equality_matches_filter(self, rows, target):
        db = load(rows)
        got = sorted(
            r[0] for r in db.execute(
                "SELECT id FROM t WHERE seg = $s", {"s": target}
            )
        )
        expected = sorted(
            i for i, (seg, _) in enumerate(rows) if seg == target
        )
        assert got == expected

    @given(rows_strategy, st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_null_semantics_in_comparisons(self, rows, threshold):
        db = load(rows)
        got = sorted(
            r[0] for r in db.execute(
                "SELECT id FROM t WHERE speed > $x", {"x": threshold}
            )
        )
        expected = sorted(
            i
            for i, (_, speed) in enumerate(rows)
            if speed is not None and speed > threshold
        )
        assert got == expected

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_group_by_count_matches_counter(self, rows):
        from collections import Counter

        db = load(rows)
        got = dict(
            db.execute("SELECT seg, COUNT(*) FROM t GROUP BY seg").rows
        )
        assert got == dict(Counter(seg for seg, _ in rows))

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_aggregates_skip_nulls(self, rows):
        db = load(rows)
        speeds = [s for _, s in rows if s is not None]
        row = db.execute(
            "SELECT COUNT(speed), SUM(speed), MIN(speed), MAX(speed) FROM t"
        ).rows[0]
        assert row[0] == len(speeds)
        assert row[1] == (sum(speeds) if speeds else None)
        assert row[2] == (min(speeds) if speeds else None)
        assert row[3] == (max(speeds) if speeds else None)

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_order_by_is_sorted_with_nulls_last(self, rows):
        db = load(rows)
        got = [
            r[0]
            for r in db.execute("SELECT speed FROM t ORDER BY speed NULLS LAST")
        ]
        non_null = [v for v in got if v is not None]
        assert non_null == sorted(non_null)
        first_null = next(
            (i for i, v in enumerate(got) if v is None), len(got)
        )
        assert all(v is None for v in got[first_null:])

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_index_and_scan_agree(self, rows):
        plain = load(rows)
        indexed = load(rows)
        indexed.execute("CREATE INDEX by_seg ON t (seg)")
        for target in range(6):
            a = sorted(
                plain.execute(
                    "SELECT id FROM t WHERE seg = $s", {"s": target}
                ).rows
            )
            b = sorted(
                indexed.execute(
                    "SELECT id FROM t WHERE seg = $s", {"s": target}
                ).rows
            )
            assert a == b

    @given(rows_strategy, st.integers(min_value=0, max_value=5))
    @settings(max_examples=40)
    def test_delete_then_count_consistent(self, rows, target):
        db = load(rows)
        deleted = db.execute(
            "DELETE FROM t WHERE seg = $s", {"s": target}
        ).rowcount
        remaining = db.execute("SELECT COUNT(*) FROM t").scalar()
        assert deleted + remaining == len(rows)
