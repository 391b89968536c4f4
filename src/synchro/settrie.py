"""Deduplicating storage of state sets, with largest-first extraction.

Sets are int bitmasks over [0, n) (bit q set = state q is a member), kept in
a dict from mask to payload, so a duplicate check is one hash probe. The
search only ever asks "have I seen exactly this set?", never a subset query,
so no trie structure is needed.
"""

from __future__ import annotations

from typing import Any


class SetTrie:
    """Distinct nonempty subsets of [0, n) with largest-first extraction.

    ``ops`` counts insert probes (one per ``insert`` call), for
    operation-count checks.
    """

    __slots__ = ("n", "ops", "_sets")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("state count must be >= 1")
        self.n = n
        self.ops = 0
        self._sets: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._sets)

    def insert(self, bits: int, payload: Any = None) -> bool:
        """Store the set ``bits`` with ``payload``; True if new, False if a
        duplicate. A duplicate keeps the payload stored first. Empty sets and
        masks with bits at or above ``n`` are rejected (callers must filter
        empty preimages before inserting)."""
        if bits <= 0 or bits >> self.n:
            raise ValueError(f"mask {bits:#x} is not a nonempty set over [0, {self.n})")
        self.ops += 1
        sets = self._sets
        if bits in sets:
            return False
        sets[bits] = payload
        return True

    def take_largest(self, c: int) -> list[tuple[int, Any]]:
        """Up to ``c`` stored ``(bits, payload)`` pairs, larger sets first and
        sets of equal size larger mask first. Returns fewer if fewer are
        stored."""
        if c < 1:
            raise ValueError("need c >= 1")
        sets = self._sets
        # Two sorts in C: by mask, then stably by size, both largest first.
        ranked = sorted(sets, reverse=True)
        ranked.sort(key=int.bit_count, reverse=True)
        return [(bits, sets[bits]) for bits in ranked[:c]]
