"""Inverse breadth-first search with a per-level frontier cutoff.

The search grows sets from singletons toward the full state set by taking
preimages, keeping only the ``maxsize`` largest distinct sets per level. The
first level whose preimages reach the full set yields a reset word of that
length, reconstructed from per-record letter/predecessor links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .automaton import (
    START_MODES,
    Automaton,
    StateSet,
    Word,
    indegree_permutation,
    start_set,
)
from .results import NotSynchronizing, SearchResult
from .settrie import SetTrie

# Symbolic frontier cap: keep every distinct set at every level.
UNBOUNDED = None


def log_cap(n: int) -> int:
    """The "log n" frontier cap: max(1, ceil(log2 n))."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


@dataclass(frozen=True)
class SearchParams:
    maxlen: int
    maxsize: Optional[int] = UNBOUNDED
    start_mode: str = "all"
    permute_by_indegree: bool = False

    def __post_init__(self):
        if self.maxlen < 0:
            raise ValueError("maxlen must be >= 0")
        if self.maxsize is not UNBOUNDED and self.maxsize < 1:
            raise ValueError("maxsize must be >= 1 or UNBOUNDED")
        if self.start_mode not in START_MODES:
            raise ValueError(f"unknown start mode {self.start_mode!r}")


class FrontierRecord:
    """A frontier set plus how it was derived: the letter whose preimage
    produced it and the record it came from (both None at level 0)."""

    __slots__ = ("set", "letter", "predecessor", "level")

    def __init__(
        self,
        sset: StateSet,
        letter: Optional[int],
        predecessor: Optional["FrontierRecord"],
        level: int,
    ):
        self.set = sset
        self.letter = letter
        self.predecessor = predecessor
        self.level = level

    def __repr__(self) -> str:
        return f"FrontierRecord(level={self.level}, set={self.set!r})"


def reconstruct_word(final: FrontierRecord) -> Word:
    """Reset word from a goal record (one whose set is the full state set).

    Each level's letter was applied as a preimage, so walking predecessors
    from the goal down to the level-0 singleton emits the letters already in
    forward application order."""
    if final.set.cardinality != final.set.n:
        raise ValueError("word reconstruction needs a goal record (set = Q)")
    word = []
    rec = final
    while rec.predecessor is not None:
        word.append(rec.letter)
        rec = rec.predecessor
    if len(word) != final.level:
        raise ValueError("predecessor chain length does not match level")
    return tuple(word)


def _as_frontier_record(n: int, rec: tuple) -> FrontierRecord:
    """The FrontierRecord chain of a (bits, letter, parent) tuple chain."""
    chain = []
    while rec is not None:
        chain.append(rec)
        rec = rec[2]
    out = None
    for lvl, (bits, letter, _) in enumerate(reversed(chain)):
        out = FrontierRecord(StateSet.from_bits(n, bits), letter, out, lvl)
    return out


def cutoff_ibfs(a: Automaton, params: SearchParams) -> Optional[SearchResult]:
    """Run the cutoff inverse BFS; None if no reset word of length <= maxlen
    was found within the frontier budget."""
    if params.permute_by_indegree:
        m, _ = indegree_permutation(a)
    else:
        m = a
    n, k = m.n, m.k
    if n == 1:
        return SearchResult(0, (), "cutoff-ibfs", frontier_sizes=[1])

    # Frontier records are plain (bits, letter, parent) tuples; the
    # FrontierRecord chain is built for the goal only.
    full = m.full_bits
    nbytes = (n + 7) // 8  # table lookups per preimage_bits call
    frontier = [(s.bits, None, None) for s in start_set(m, params.start_mode)]
    sizes = [len(frontier)]
    level_ops: list[int] = []
    # Brent cycle check: a level's mask list (canonical, as take_largest
    # orders it) fixes every later level, so if it repeats the mask list
    # saved at the last power-of-two level, no later level reaches the goal.
    checkpoint = None

    for level in range(1, params.maxlen + 1):
        trie = SetTrie(n)
        ops = 0
        goal = None
        for rec in frontier:
            sbits = rec[0]
            for letter in range(k):
                pbits = m.preimage_bits(sbits, letter)
                ops += nbytes
                if pbits == 0:
                    continue
                if pbits == full:
                    goal = (full, letter, rec)
                    break
                # duplicate sets keep the first record; insert is a no-op then
                trie.insert(pbits, (pbits, letter, rec))
            if goal is not None:
                break
        level_ops.append(ops + trie.ops)
        if goal is not None:
            record = _as_frontier_record(n, goal)
            return SearchResult(
                level,
                reconstruct_word(record),
                "cutoff-ibfs",
                frontier_sizes=sizes,
                level_ops=level_ops,
                record=record,
            )
        cap = len(trie) if params.maxsize is UNBOUNDED else params.maxsize
        taken = trie.take_largest(cap) if len(trie) else []
        frontier = [rec for _, rec in taken]
        sizes.append(len(frontier))
        if not frontier:
            break
        masks = [bits for bits, _ in taken]
        if masks == checkpoint:
            break
        if level & (level - 1) == 0:
            checkpoint = masks
    return None


def synchronize(
    a: Automaton,
    maxsize: Optional[int] = UNBOUNDED,
    *,
    start_mode: str = "all",
    permute_by_indegree: bool = False,
) -> SearchResult:
    """Eppstein first for an upper bound, then the cutoff inverse BFS for
    anything strictly shorter; returns whichever word is shorter. Raises
    NotSynchronizing when no reset word exists. The result's length never
    exceeds the Eppstein length."""
    from .baselines import eppstein_greedy

    bound = eppstein_greedy(a)
    if bound.length == 0:
        return bound
    params = SearchParams(
        maxlen=bound.length - 1,
        maxsize=maxsize,
        start_mode=start_mode,
        permute_by_indegree=permute_by_indegree,
    )
    result = cutoff_ibfs(a, params)
    return bound if result is None else result


__all__ = [
    "UNBOUNDED",
    "log_cap",
    "SearchParams",
    "FrontierRecord",
    "reconstruct_word",
    "cutoff_ibfs",
    "synchronize",
    "NotSynchronizing",
]
