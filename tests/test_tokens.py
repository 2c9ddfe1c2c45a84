"""Token wrappers and field access."""

import pytest

from repro.core.tokens import Token


class TestToken:
    def test_value_roundtrip(self):
        assert Token(42).value == 42

    def test_immutability(self):
        token = Token(1)
        with pytest.raises(AttributeError):
            token.value = 2  # type: ignore[misc]

    def test_equality_by_payload(self):
        assert Token(3) == Token(3)
        assert Token(3) != Token(4)

    def test_hash_consistency_for_hashable_payloads(self):
        assert len({Token("a"), Token("a"), Token("b")}) == 2

    def test_unhashable_payload_falls_back_to_identity(self):
        token = Token([1, 2])
        assert hash(token) == id(token)

    def test_field_access_on_mapping(self):
        token = Token({"speed": 55})
        assert token.field("speed") == 55
        with pytest.raises(KeyError):
            token.field("missing")

    def test_field_access_on_object(self):
        class Car:
            speed = 60

        assert Token(Car()).field("speed") == 60

    def test_field_access_missing_attribute(self):
        with pytest.raises(KeyError):
            Token(object()).field("nope")
