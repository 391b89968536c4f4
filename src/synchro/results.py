"""Shared result type and outcome exceptions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .automaton import Word


def _render_word(word: Sequence[int], sep: str) -> str:
    """``sep.join(map(str, word))``, with one ``str`` made per distinct
    letter rather than one per letter of the word. Keyed by the letters
    themselves, so any int renders as ``str`` would render it."""
    names = {x: str(x) for x in set(word)}
    return sep.join(map(names.__getitem__, word))


class NotSynchronizing(Exception):
    """The automaton admits no reset word."""


class InstanceTooLarge(ValueError):
    """The instance exceeds the configured exact-search limit."""


@dataclass
class SearchResult:
    """Outcome of a successful reset-word search, for every algorithm. It
    holds no wall time, so equal inputs give equal results; callers time it.

    ``frontier_sizes[l]`` is the frontier size after trimming at level ``l``
    (index 0 = start singletons); empty for searches without a frontier.
    ``level_ops`` counts, per level, the preimage table lookups made plus one
    per dedup probe, for complexity checks: ceil(n/8) lookups per set whose
    k preimages are taken from the tables, whatever k is, and none for a
    set whose preimages are reused from the carry, which holds those of
    sets expanded before; the start singletons' preimages are read from
    the inverse table, so level 1 (``level_ops[0]``) counts its dedup
    probes alone.

    ``level_probes`` counts, per level, the dedup probes: the nonempty
    preimages offered for dedup, which stop before the goal letter on the
    last level. ``level_distinct`` counts, per level that ends without the
    goal, the distinct sets among them, before the cut. Neither enters
    ``fingerprint()``.
    """

    length: int
    word: Word
    algorithm: str
    frontier_sizes: list[int] = field(default_factory=list)
    level_ops: list[int] = field(default_factory=list)
    level_probes: list[int] = field(default_factory=list)
    level_distinct: list[int] = field(default_factory=list)

    def frontier_peak(self) -> int:
        return max(self.frontier_sizes, default=0)

    def fingerprint(self) -> str:
        """Canonical rendering of the algorithm, length, word and frontier
        sizes; equal fingerprints mean identical results."""
        return (
            f"algorithm={self.algorithm};length={self.length};"
            f"word={_render_word(self.word, ',')};"
            f"frontier_sizes={','.join(map(str, self.frontier_sizes))}"
        )
