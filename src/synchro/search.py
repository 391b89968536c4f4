"""Inverse breadth-first search with a per-level frontier cutoff.

The search grows sets from singletons toward the full state set by taking
preimages, keeping only the ``maxsize`` largest distinct sets per level. The
first level whose preimages reach the full set yields a reset word of that
length. Its options (``maxsize``, ``start_mode``, ``permute_by_indegree``)
are the same keywords in `cutoff_ibfs` and `synchronize`, and both check them
before any work. The search runs on one relabelled copy of the automaton,
numbered by in-degree under permutation and mirrored; letters keep their
names in every numbering, so the copy's words are the caller's. Each level
is one batch: its preimages go into one list, a dict built in C keeps each
distinct set's first position there (parent index times k plus letter), and
the cut sorts the masks in C, so no tie-break key is built per set and
neither step runs Python code per set. The word is read back from the goal's
position through the kept positions of earlier levels.

A level's kept sets fix every later level, so a frontier equal to the one
kept at the last power-of-two level (Brent's method) means a cycle, and the
search stops there; so it ends on an automaton with no reset word without
walking up to ``maxlen``. A set's k preimages come from one kernel call,
one table lookup per byte of its mask serving every letter. One carry, kept
across levels, holds each expanded set's preimage list; a set found there is
not expanded again. A preimage depends only on the mask and the letter, so
this reuse changes no word and no frontier size. Only a list the kernel
makes is tested for the full set, since a carried list was tested when it
was made.
"""

from __future__ import annotations

import operator
from typing import Optional

from .automaton import START_MODES, Automaton, _indegree_order, _relabel, start_set
from .baselines import eppstein_greedy
from .results import NotSynchronizing, SearchResult
from .settrie import SetTrie

# Symbolic frontier cap: keep every distinct set at every level.
UNBOUNDED = None


def log_cap(n: int) -> int:
    """The "log n" frontier cap: max(1, ceil(log2 n)), exact in ints."""
    return (max(n, 2) - 1).bit_length()


def _check_options(
    start_mode: str, maxsize: Optional[int] = UNBOUNDED, maxlen: int = 0
) -> None:
    # operator.index raises TypeError for a non-integer, such as 2.5
    if operator.index(maxlen) < 0:
        raise ValueError("maxlen must be >= 0")
    if maxsize is not UNBOUNDED and operator.index(maxsize) < 1:
        raise ValueError("maxsize must be >= 1 or UNBOUNDED")
    if start_mode not in START_MODES:
        raise ValueError(f"unknown start mode {start_mode!r}")


def cutoff_ibfs(
    a: Automaton,
    maxlen: int,
    maxsize: Optional[int] = UNBOUNDED,
    *,
    start_mode: str = "all",
    permute_by_indegree: bool = False,
) -> Optional[SearchResult]:
    """Run the cutoff inverse BFS; None if no reset word of length <= maxlen
    was found within the frontier budget."""
    _check_options(start_mode, maxsize, maxlen)
    n, k = a.n, a.k
    if n == 1:
        return SearchResult(0, (), "cutoff-ibfs", frontier_sizes=[1])

    # The search runs on one copy, in which state q is n-1-pi[q], with pi
    # the in-degree numbering under permutation and the identity otherwise.
    # Mirrored so, a set's mask is its pi-numbered mask bit-reversed, and
    # among sets of equal size the lexicographically smaller member list
    # has the larger mask, which is the order take_largest ranks by. Every
    # start set names the same states under any numbering, so it is taken
    # on the copy, whose inverse the search reads anyway. The copy's tables
    # die with the call, so none stays cached on the caller's automaton and
    # the byte tables are never alive beside the greedy's pair table; the
    # price is that every call builds them again.
    pi = _indegree_order(a) if permute_by_indegree else range(n)
    r = _relabel(a, [n - 1 - p for p in pi])
    full = r.full_bits
    nbytes = (n + 7) // 8  # table lookups per preimage_bits call, any k
    level_ops: list[int] = []
    probes: list[int] = []
    distinct: list[int] = []
    # Each level lists the preimages of its frontier parent by parent,
    # letters in order, so the preimage of set i under letter x sits at
    # i * k + x. links[l - 1][j] is that position for set j of level l: its
    # parent and letter, by divmod. The goal's letters, parent to parent,
    # are the word in order.
    links: list[list[int]] = []
    preimage = r.preimage_bits
    # Brent cycle check: a level's mask list (canonical, as take_largest
    # orders it) fixes every later level, so if it repeats the mask list
    # saved at the last power-of-two level, no later level reaches the goal.
    checkpoint = None
    # A narrow frontier is mostly the sets of recent levels, so the carry
    # `known` maps each set expanded so far to its preimage list, and a
    # level reads a recurring set's list there instead of the tables; only
    # the kernel writes it. The start singletons seed it with their inverse
    # masks, inv[x][q] for {q} under x. A list is tested for the full set
    # once, as it enters the carry, and a hit ends the search; so a carried
    # list never holds it, but a start list may, and level 1 then finds the
    # goal in its flat list.
    inv = r.build_inverse()
    starts = start_set(r, start_mode)
    start_pres = zip(*[map(row.__getitem__, starts) for row in inv])
    known = dict(zip(map((1).__lshift__, starts), map(list, start_pres)))
    start_goal = any(full in pres for pres in known.values())
    get = known.get
    frontier = sorted(known, reverse=True)
    start_count = len(frontier)

    for level in range(1, maxlen + 1):
        flat: list[int] = []
        lookups = 0
        goal = None
        for sbits in frontier:
            pres = get(sbits)
            if pres is None:
                pres = known[sbits] = preimage(sbits)
                lookups += nbytes
                if full in pres:
                    goal = len(flat) + pres.index(full)
                    flat += pres
                    break
            flat += pres
        else:
            if start_goal:  # level 1 only: it ends there
                goal = flat.index(full)
        if goal is not None:
            # the letters after the goal's are never offered for dedup
            del flat[goal:]
        offered = len(flat) - flat.count(0)
        probes.append(offered)
        level_ops.append(lookups + offered)
        if goal is not None:
            parent, letter = divmod(goal, k)
            word = [letter]
            for link in reversed(links):
                parent, letter = divmod(link[parent], k)
                word.append(letter)
            return SearchResult(
                level,
                tuple(word),
                "cutoff-ibfs",
                frontier_sizes=[start_count, *map(len, links)],
                level_ops=level_ops,
                level_probes=probes,
                level_distinct=distinct,
            )
        # Past four times this frontier's size, the carry keeps only this
        # level's sets. A trim copies under a quarter of what the carry
        # holds, so all trims together copy under a third as many sets as
        # the kernel expands, plus the start sets: O(1) per kernel call. The
        # carry stays within a few levels' worth of sets.
        if len(known) > 4 * len(frontier):
            known = dict(zip(frontier, map(known.__getitem__, frontier)))
            get = known.get
        # a set met twice keeps its first position, so its first parent
        trie = SetTrie.from_masks(flat)
        distinct.append(len(trie))
        if not trie:
            break
        frontier = trie.take_largest(maxsize or len(trie))
        links.append(list(map(trie.__getitem__, frontier)))
        if frontier == checkpoint:
            break
        if level & (level - 1) == 0:
            checkpoint = frontier
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
    _check_options(start_mode, maxsize)
    bound = eppstein_greedy(a)
    if bound.length == 0:
        return bound
    result = cutoff_ibfs(
        a,
        bound.length - 1,
        maxsize,
        start_mode=start_mode,
        permute_by_indegree=permute_by_indegree,
    )
    return bound if result is None else result

