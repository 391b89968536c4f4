"""Shared brute-force oracles, kept independent of the library internals:
they only read the transition table via Automaton.delta. Also one shared
fixture, the greedy's long word on cerny(300)."""

from __future__ import annotations

from collections import deque
from itertools import product

import pytest

from synchro import Automaton, NotSynchronizing, cerny, eppstein_greedy

# one tag of each algorithm tag form
PARITY_TAGS = (
    "eppstein", "exact", "cutoff-ibfs:log", "cutoff-ibfs:n",
    "cutoff-ibfs:unbounded", "cutoff-ibfs:3",
)


def brute_image(a: Automaton, members, letter) -> set[int]:
    return {a.delta(q, letter) for q in members}


def brute_preimage(a: Automaton, members, letter) -> set[int]:
    target = set(members)
    return {q for q in range(a.n) if a.delta(q, letter) in target}


def brute_word_image(a: Automaton, members, word) -> set[int]:
    cur = set(members)
    for letter in word:
        cur = brute_image(a, cur, letter)
    return cur


def brute_synchronizes(a: Automaton, word) -> bool:
    """Whether ``word`` takes the full state set to one state, walking a bit
    mask of the current states letter by letter."""
    bits = (1 << a.n) - 1
    for letter in word:
        bits = sum({1 << a.delta(q, letter) for q in range(a.n) if bits >> q & 1})
    return bits.bit_count() == 1


@pytest.fixture(scope="session")
def cerny300_greedy():
    """Eppstein's word for cerny(300): 267 662 letters over two."""
    return eppstein_greedy(cerny(300))


def brute_start_states(a: Automaton, mode: str) -> list[int]:
    """The start states of each search mode, from reachability alone: "sink"
    keeps the states of the one sink component (a state is in a sink
    component when every state it reaches reaches it back), "high-indegree"
    the states with two or more predecessors under some letter; a mode that
    finds none, or more than one sink component, falls back to all states."""
    n = a.n
    states = list(range(n))
    if mode == "sink":
        reach = [{q} for q in states]
        for q in states:  # n one-step rounds reach every reachable state
            for _ in range(n):
                reach[q] |= {a.delta(p, x) for p in reach[q] for x in range(a.k)}
        sinks = {
            frozenset(reach[q]) for q in states if all(q in reach[p] for p in reach[q])
        }
        found = sorted(next(iter(sinks))) if len(sinks) == 1 else []
    elif mode == "high-indegree":
        found = [
            p
            for p in states
            if any(len(brute_preimage(a, {p}, x)) >= 2 for x in range(a.k))
        ]
    else:
        found = states
    return found or states


def brute_indegree_relabel(a: Automaton) -> Automaton:
    """The automaton with states renumbered by total in-degree, highest
    first, ties in the old order."""
    n, k = a.n, a.k
    total = [sum(len(brute_preimage(a, {p}, x)) for x in range(k)) for p in range(n)]
    old = sorted(range(n), key=lambda p: (-total[p], p))
    new = {q: i for i, q in enumerate(old)}
    return Automaton([[new[a.delta(q, x)] for x in range(k)] for q in old])


def brute_capped_search(a: Automaton, maxlen, maxsize, start_mode="all", permute=False):
    """The cutoff inverse BFS on member sets, with no cycle check: it runs
    every level up to ``maxlen``. Each level takes the preimages of its
    frontier's sets in frontier order, letters in order; the first one that
    holds every state ends the search, empty ones are dropped, and a set met
    twice keeps its first record. The next frontier is the ``maxsize`` first
    sets (all for None), larger sets first, then the lexicographically
    smaller member list. Returns (length, word, frontier_sizes, probes,
    distinct), or None: ``probes`` counts, per level, the nonempty preimages
    met before the goal, and ``distinct``, per level without the goal, the
    distinct sets among them."""
    m = brute_indegree_relabel(a) if permute else a
    frontier = [({q}, ()) for q in brute_start_states(m, start_mode)]
    sizes = [len(frontier)]
    if m.n == 1:
        return 0, (), sizes, [], []
    everything = set(range(m.n))
    probes, distinct = [], []
    for level in range(1, maxlen + 1):
        found = {}
        probes.append(0)
        for members, word in frontier:
            for letter in range(m.k):
                pre = brute_preimage(m, members, letter)
                if pre == everything:
                    return level, (letter, *word), sizes, probes, distinct
                if pre:
                    probes[-1] += 1
                    found.setdefault(frozenset(pre), (letter, *word))
        distinct.append(len(found))
        ranked = sorted(found, key=lambda s: (-len(s), sorted(s)))[:maxsize]
        if not ranked:
            return None
        frontier = [(s, found[s]) for s in ranked]
        sizes.append(len(frontier))
    return None


def brute_pair_merge_distance(a: Automaton, p: int, q: int, limit: int) -> int:
    """Length of a shortest word merging {p, q}, by BFS over unordered pairs
    forward (independent of the backward diagonal BFS it checks). -1 if none
    within ``limit``."""
    if p == q:
        return 0
    start = (min(p, q), max(p, q))
    seen = {start}
    frontier = [start]
    for d in range(1, limit + 1):
        nxt = []
        for u, v in frontier:
            for letter in range(a.k):
                x, y = a.delta(u, letter), a.delta(v, letter)
                if x == y:
                    return d
                pair = (min(x, y), max(x, y))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
        if not frontier:
            break
    return -1


def eager_eppstein(a: Automaton) -> tuple[int, ...]:
    """Eppstein's greedy word from a pair table built in full up front: the
    FIFO BFS from the diagonal backwards over the pair automaton, preimages
    taken in increasing state order, the first letter to reach a pair kept.
    Then repeatedly merge the pair of current states with the least distance,
    ties to the lexicographically smallest pair. Raises NotSynchronizing if
    some pair never merges."""
    n, k = a.n, a.k
    pre = [
        [[q for q in range(n) if a.delta(q, x) == p] for p in range(n)]
        for x in range(k)
    ]
    dist = {(p, p): 0 for p in range(n)}
    letter = {}
    queue = deque(dist)
    while queue:
        u, v = queue.popleft()
        for x in range(k):
            for p in pre[x][u]:
                for q in pre[x][v]:
                    pair = (min(p, q), max(p, q))
                    if pair not in dist:
                        dist[pair] = dist[(u, v)] + 1
                        letter[pair] = x
                        queue.append(pair)
    if len(dist) < n * (n + 1) // 2:
        raise NotSynchronizing("some state pair has no merging word")
    members = set(range(n))
    word = []
    while len(members) > 1:
        s = sorted(members)
        pairs = [(p, q) for i, p in enumerate(s) for q in s[i + 1 :]]
        p, q = min(pairs, key=lambda pair: (dist[pair], pair))
        while p != q:
            x = letter[(min(p, q), max(p, q))]
            word.append(x)
            members = {a.delta(r, x) for r in members}
            p, q = a.delta(p, x), a.delta(q, x)
    return tuple(word)


def no_shorter_reset_word(a: Automaton, length: int) -> bool:
    """Exhaustively check that no word strictly shorter than ``length``
    synchronizes. Only viable for tiny alphabets/lengths."""
    all_states = range(a.n)
    for l in range(length):
        for word in product(range(a.k), repeat=l):
            if len(brute_word_image(a, all_states, word)) == 1:
                return False
    return True
