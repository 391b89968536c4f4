"""One inverse-search level's distinct state sets, with largest-first
extraction.

Sets are int bitmasks (bit q set = state q is a member). The search only ever
asks "have I seen exactly this set?", never a subset query, so a dict from
mask to its first position in the level's preimage list does the dedup, and
no trie structure is needed.
"""

from __future__ import annotations


class SetTrie(dict):
    """Distinct nonempty masks of one level, each mapped to the index of its
    first occurrence in the list it was built from."""

    __slots__ = ()

    @classmethod
    def from_masks(cls, masks: list[int]) -> "SetTrie":
        """The distinct nonzero masks of ``masks``, built in C. Later keys
        overwrite earlier ones, so the list is fed back to front and the
        first occurrence's index is the one kept."""
        last = len(masks) - 1
        sets = cls(zip(reversed(masks), range(last, -1, -1)))
        sets.pop(0, None)
        return sets

    def take_largest(self, c: int) -> list[int]:
        """Up to ``c`` stored masks, larger sets first and sets of equal size
        larger mask first. Returns fewer if fewer are stored."""
        if c < 1:
            raise ValueError("need c >= 1")
        # Two sorts in C: by mask, then stably by size, both largest first.
        ranked = sorted(self, reverse=True)
        ranked.sort(key=int.bit_count, reverse=True)
        del ranked[c:]
        return ranked
