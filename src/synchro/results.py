"""Shared result type and outcome exceptions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .automaton import Word


class NotSynchronizing(Exception):
    """The automaton admits no reset word."""


class InstanceTooLarge(Exception):
    """The instance exceeds the configured exact-search limit."""


@dataclass
class SearchResult:
    """Outcome of a successful reset-word search.

    ``frontier_sizes[l]`` is the frontier size after trimming at level ``l``
    (index 0 = start singletons); empty for searches without a frontier.
    ``level_ops`` counts, per level, the preimage table lookups (ceil(n/8)
    per preimage) plus one per dedup probe, for complexity checks. ``record`` is the goal frontier
    record when the word came out of the inverse search.
    """

    length: int
    word: Word
    algorithm: str
    frontier_sizes: list[int] = field(default_factory=list)
    elapsed: float = 0.0
    params: Any = None
    level_ops: list[int] = field(default_factory=list)
    record: Optional[Any] = None

    def frontier_peak(self) -> int:
        return max(self.frontier_sizes, default=0)

    def fingerprint(self) -> str:
        """Canonical rendering of everything deterministic (wall time and the
        record chain excluded); equal fingerprints mean identical results."""
        return (
            f"algorithm={self.algorithm};length={self.length};"
            f"word={','.join(map(str, self.word))};"
            f"frontier_sizes={','.join(map(str, self.frontier_sizes))}"
        )
