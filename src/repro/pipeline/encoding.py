"""Ordinal (dictionary) encoding of categorical features.

The Azure pipeline compresses features "by using a simple dictionary
(i.e., ordinal encoding)" before they reach the learning system (paper
§4.2).  The encoder assigns dense int codes in first-seen order, supports
decoding for presentation, and can report its size for compression
accounting.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple


class OrdinalEncoder:
    """Bidirectional value <-> dense int code mapping."""

    def __init__(self, name: str = ""):
        self.name = name
        self._to_code: Dict[Hashable, int] = {}
        self._to_value: List[Hashable] = []

    def encode(self, value: Hashable) -> int:
        """Code for a value, assigning a new code on first sight."""
        code = self._to_code.get(value)
        if code is None:
            code = len(self._to_value)
            self._to_code[value] = code
            self._to_value.append(value)
        return code

    def decode(self, code: int) -> Hashable:
        """Value for a code; raises ``IndexError`` for unknown codes."""
        if code < 0:
            raise IndexError(f"negative code {code} has no value")
        return self._to_value[code]

    def __len__(self) -> int:
        return len(self._to_value)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._to_code

    def values(self) -> Tuple[Hashable, ...]:
        return tuple(self._to_value)


class EncoderSet:
    """The pipeline's shared encoders for the string-valued features."""

    def __init__(self):
        self.location = OrdinalEncoder("source_location")
        self.region = OrdinalEncoder("dest_region")
        self.service = OrdinalEncoder("dest_service")
