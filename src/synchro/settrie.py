"""Deduplicating storage of state sets, with largest-first extraction.

Sets are int bitmasks over [0, n) (bit q set = state q is a member), kept in
a dict from mask to payload, so a duplicate check is one hash probe. The
search only ever asks "have I seen exactly this set?", never a subset query,
so no trie structure is needed.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Any

# _REVERSED_BYTE[b] is the byte b with its 8 bits in reverse order, built
# with the multiply-and-modulus byte reversal ("Bit Twiddling Hacks"), which
# costs a sixth of formatting and reparsing each byte at import.
_REVERSED_BYTE = bytes((b * 0x0202020202 & 0x010884422010) % 1023 for b in range(256))


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
        sets of equal size in lexicographic order of their sorted members.
        Returns fewer if fewer are stored."""
        if c < 1:
            raise ValueError("need c >= 1")
        sets = self._sets
        masks = list(sets)
        counts = list(map(int.bit_count, masks))
        if c < len(masks):
            # Only sets at least as large as the c-th largest can be taken.
            least = sorted(counts)[-c]
            keep = list(map(least.__le__, counts))
            masks = list(compress(masks, keep))
            counts = list(compress(counts, keep))
        # Reversing the mask's bits puts state 0 on top, so among sets of
        # equal size the lexicographically smaller member list has the larger
        # reversed mask. Distinct masks have distinct keys, so the sort never
        # compares the masks themselves.
        nbytes = (self.n + 7) // 8
        keys = map(
            int.from_bytes,
            map(
                bytes.translate,
                map(int.to_bytes, masks, repeat(nbytes), repeat("little")),
                repeat(_REVERSED_BYTE),
            ),
            repeat("big"),
        )
        ranked = sorted(zip(counts, keys, masks), reverse=True)
        return [(bits, sets[bits]) for _, _, bits in ranked[:c]]
