"""Eppstein's greedy pair-merging algorithm and an exact BFS oracle."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import Automaton, _bit_members
from .results import InstanceTooLarge, NotSynchronizing, SearchResult

# Largest state count exact_shortest accepts by default: the power automaton
# it explores can have 2^n subsets.
EXACT_MAX_STATES = 20


@dataclass
class PairTable:
    """Shortest merging words for unordered state pairs.

    ``dist[p*n+q]`` (p <= q) is the length of a shortest word whose image of
    {p, q} is a singleton, -1 if none exists; ``letter`` holds the first
    letter of one such word. Built by BFS from the diagonal backwards over
    the pair automaton.
    """

    n: int
    dist: list[int]
    letter: list[int]

    def _index(self, p: int, q: int) -> int:
        if p > q:
            p, q = q, p
        return p * self.n + q

    def distance(self, p: int, q: int) -> int:
        return self.dist[self._index(p, q)]

    def merge_letter(self, p: int, q: int) -> int:
        return self.letter[self._index(p, q)]

    @property
    def complete(self) -> bool:
        """All pairs mergeable, i.e. the automaton is synchronizing."""
        n = self.n
        return all(
            self.dist[p * n + q] >= 0 for p in range(n) for q in range(p + 1, n)
        )


def build_pair_table(a: Automaton) -> PairTable:
    n, k = a.n, a.k
    inv = [[a.preimage_states(letter, p) for p in range(n)] for letter in range(k)]
    dist = [-1] * (n * n)
    letter_of = [-1] * (n * n)
    queue: deque[tuple[int, int]] = deque()
    for p in range(n):
        dist[p * n + p] = 0
        queue.append((p, p))
    while queue:
        u, v = queue.popleft()
        d1 = dist[u * n + v] + 1
        for letter in range(k):
            inv_u = inv[letter][u]
            inv_v = inv[letter][v]
            for p in inv_u:
                for q in inv_v:
                    if p == q:
                        continue
                    i = p * n + q if p < q else q * n + p
                    if dist[i] < 0:
                        dist[i] = d1
                        letter_of[i] = letter
                        queue.append((p, q) if p < q else (q, p))
    return PairTable(n, dist, letter_of)


def eppstein_greedy(a: Automaton) -> SearchResult:
    """Greedy pair merging: repeatedly merge the pair of current states with
    the shortest merging word (ties: lexicographically smallest pair) until a
    single state remains. Raises NotSynchronizing if some pair never merges."""
    n = a.n
    if n == 1:
        return SearchResult(0, (), "eppstein")
    table = build_pair_table(a)
    if not table.complete:
        raise NotSynchronizing("some state pair has no merging word")

    rows = a.rows
    dist = table.dist
    letter_of = table.letter
    bits = a.full_bits
    members = list(range(n))
    word: list[int] = []
    while len(members) > 1:
        best_d = -1
        best = (0, 0)
        m = len(members)
        for i in range(m):
            p = members[i]
            base = p * n
            for j in range(i + 1, m):
                d = dist[base + members[j]]
                if best_d < 0 or d < best_d:
                    best_d = d
                    best = (p, members[j])
                    if d == 1:
                        break
            if best_d == 1:
                break
        p, q = best
        while p != q:
            letter = letter_of[p * n + q if p < q else q * n + p]
            word.append(letter)
            bits = a.image_bits(bits, letter)
            p = rows[p][letter]
            q = rows[q][letter]
        members = _bit_members(bits)
    return SearchResult(len(word), tuple(word), "eppstein")


def exact_shortest(a: Automaton, max_states: int = EXACT_MAX_STATES) -> SearchResult:
    """A shortest reset word, via forward BFS in the power automaton from the
    full state set. Limited to small n since the reachable subset space can
    be exponential."""
    if a.n > max_states:
        raise InstanceTooLarge(f"n={a.n} exceeds exact-search limit {max_states}")
    full = a.full_bits
    if a.n == 1:
        return SearchResult(0, (), "exact")
    parent: dict[int, tuple[int, int] | None] = {full: None}
    queue: deque[int] = deque([full])
    k = a.k
    while queue:
        bits = queue.popleft()
        for letter in range(k):
            nxt = a.image_bits(bits, letter)
            if nxt in parent:
                continue
            parent[nxt] = (letter, bits)
            if nxt.bit_count() == 1:
                word = []
                cur = nxt
                while parent[cur] is not None:
                    letter, prev = parent[cur]  # type: ignore[misc]
                    word.append(letter)
                    cur = prev
                word.reverse()
                return SearchResult(len(word), tuple(word), "exact")
            queue.append(nxt)
    raise NotSynchronizing("no singleton reachable from the full state set")
