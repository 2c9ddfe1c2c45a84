"""CWEvent layout and ordering."""

import pytest

from repro.core.events import CWEvent
from repro.core.tokens import Token
from repro.core.waves import WaveTag


class TestCWEvent:
    def test_value_and_field(self):
        event = CWEvent({"seg": 4}, 100, WaveTag.root(1))
        assert event.value == {"seg": 4}
        assert event.field("seg") == 4

    def test_ordering_by_timestamp_first(self):
        early = CWEvent("a", 10, WaveTag.root(2))
        late = CWEvent("b", 20, WaveTag.root(1))
        assert early < late

    def test_ordering_by_wave_within_timestamp(self):
        first = CWEvent("a", 10, WaveTag.root(1))
        second = CWEvent("b", 10, WaveTag.root(2))
        assert first < second

    def test_seq_breaks_exact_ties(self):
        a = CWEvent("a", 10, WaveTag.root(1))
        b = CWEvent("b", 10, WaveTag.root(1))
        assert a < b  # admission order

    def test_token_and_tag_arguments_are_unwrapped(self):
        event = CWEvent(Token({"seg": 4}), 10, WaveTag((1, 2)))
        assert event.value == {"seg": 4}
        assert type(event.path) is tuple and event.path == (1, 2)

    def test_wave_is_a_view_of_the_path(self):
        event = CWEvent("a", 10, (3, 1, 2))
        assert event.wave == WaveTag((3, 1, 2))
        assert event.wave.parent == WaveTag((3, 1))
        with pytest.raises(AttributeError):
            event.wave = WaveTag((4,))  # type: ignore[misc]

    def test_path_orders_as_wave_tags_do(self):
        paths = [(2,), (1, 3), (1,), (1, 2, 1), (1, 2), (1, 10)]
        events = [CWEvent("x", 5, path) for path in paths]
        assert [e.path for e in sorted(events)] == [
            tag.path for tag in sorted(WaveTag(path) for path in paths)
        ]

    def test_repr_mentions_wave_mark(self):
        event = CWEvent("a", 1, WaveTag.root(1), last_in_wave=True)
        assert "!" in repr(event)

    def test_timestamp_coerced_to_int(self):
        assert CWEvent("a", 10.0, WaveTag.root(1)).timestamp == 10
