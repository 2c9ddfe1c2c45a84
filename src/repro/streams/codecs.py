"""Wire codecs for push streams.

CONFLuEnCE's push sources receive newline-delimited records over TCP;
the codec translates between payload objects and wire lines: one JSON
document (a dict, or a dataclass on encode) per line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from typing import Any

from ..core.exceptions import ConfluenceError


class CodecError(ConfluenceError):
    """A wire line could not be decoded."""


class JSONLinesCodec:
    """One JSON document per line; payloads are dicts (or dataclasses)."""

    def encode(self, payload: Any) -> str:
        if is_dataclass(payload) and not isinstance(payload, type):
            payload = asdict(payload)
        return json.dumps(payload, separators=(",", ":"))

    def decode(self, line: str) -> Any:
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise CodecError(f"bad JSON line: {line[:80]!r}") from exc
