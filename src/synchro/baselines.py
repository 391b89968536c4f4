"""Eppstein's greedy pair-merging algorithm and an exact BFS oracle."""

from __future__ import annotations

from array import array
from collections import deque

from .automaton import Automaton, _apply_word
from .results import InstanceTooLarge, NotSynchronizing, SearchResult

# Largest state count exact_shortest accepts by default: the power automaton
# it explores can have 2^n subsets.
EXACT_MAX_STATES = 20


class PairTable:
    """Shortest merging words for unordered state pairs, built one distance
    level at a time.

    ``dist[p*n+q]`` (p < q) is the length of a shortest word whose image of
    {p, q} is a singleton and ``letter[p*n+q]`` the first letter of one such
    word; ``dist[p*n+p]`` is 0. The table is the FIFO BFS from the diagonal
    backwards over the pair automaton, paused between levels: invariant,
    every pair at distance <= ``level`` is labelled and the rest read -1.
    ``order`` is the BFS queue, every labelled index in BFS order; level d is
    ``order[starts[d]:starts[d+1]]``, level 0 the diagonal. Letters take one
    byte each when k <= 256. :meth:`grow` labels further levels. Since the
    queue order is that of one uninterrupted BFS, so is every stored letter.
    """

    __slots__ = ("n", "dist", "letter", "order", "starts", "level", "_inv")

    def __init__(self, a: Automaton):
        n = a.n
        self.n = n
        self.dist = array("i", [-1]) * (n * n)
        self.letter = bytearray(n * n) if a.k <= 256 else array("i", [0]) * (n * n)
        self.level = 0
        self.order = array("i", range(0, n * n, n + 1))
        for i in self.order:
            self.dist[i] = 0
        self.starts = array("i", [0, n])
        # (letter, per-state preimage lists, ascending), one entry per letter,
        # read off the columns so that no table is cached on ``a``
        self._inv = []
        for x, col in enumerate(zip(*a.rows)):
            lists: list[list[int]] = [[] for _ in range(n)]
            for q, p in enumerate(col):
                lists[p].append(q)
            self._inv.append((x, lists))

    def grow(self, inside: bytes | bytearray) -> list[int]:
        """Label levels until one holds pairs of states both flagged in
        ``inside`` and return their indices ``p*n+q`` in BFS order (all-ones
        flags: the next level); once the BFS ends, return [] instead."""
        n, dist, letter, order, starts = (
            self.n, self.dist, self.letter, self.order, self.starts)
        append = order.append
        d1 = self.level
        while True:
            d1 += 1
            hits: list[int] = []
            for i in order[starts[-2]:]:
                u = i // n
                v = i - u * n
                for x, inv in self._inv:
                    inv_u = inv[u]
                    inv_v = inv[v]
                    if not (inv_u and inv_v):
                        continue
                    for p in inv_u:
                        for q in inv_v:
                            # p == q hits the diagonal, which is labelled 0
                            j = p * n + q if p < q else q * n + p
                            if dist[j] < 0:
                                dist[j] = d1
                                letter[j] = x
                                append(j)
                                if inside[p] and inside[q]:
                                    hits.append(j)
            if len(order) == starts[-1]:
                return hits
            self.level = d1
            starts.append(len(order))
            if hits:
                return hits


def build_pair_table(a: Automaton) -> PairTable:
    """The pair table of ``a`` with level 0 (the diagonal) labelled."""
    return PairTable(a)


def _merge_ahead(
    cols: list[tuple[int, ...]], n: int, members: list[int], lowest: int, budget: int
) -> list[int] | None:
    """The merging word a fully grown pair table gives the closest pair of
    ``members`` (sorted; no pair of them merges in fewer than ``lowest``
    letters), found by a forward BFS over pairs from each member pair in turn,
    or None once the BFS has cost more than ``budget`` (1 per pair started, k
    per pair of each layer expanded) or some member pair never merges."""
    k = len(cols)
    best: list[list[int]] = []  # forward layers of the closest pair so far
    for i, p in enumerate(members):
        for q in members[i + 1 :]:
            budget -= 1
            layers = [[p * n + q]]
            seen = {p * n + q}
            # expanding layer t finds a distance of t + 1; a tie keeps the
            # earlier pair, so only distances below len(best) are sought
            while not best or len(layers) < len(best):
                layer = layers[-1]
                budget -= k * len(layer)
                if budget < 0 or not layer:
                    return None
                nxt = _next_layer(cols, n, layer, seen)
                if nxt is None:
                    best = layers
                    break
                layers.append(nxt)
            if len(best) == lowest:
                return _table_word(cols, n, best)
    return _table_word(cols, n, best) if best else None


def _next_layer(
    cols: list[tuple[int, ...]], n: int, layer: list[int], seen: set[int]
) -> list[int] | None:
    """The pairs one letter from ``layer`` that are not in ``seen``, in the
    order first reached and added to ``seen``, or None if some letter
    merges a pair of ``layer``."""
    nxt = []
    for i in layer:
        u, v = divmod(i, n)
        for col in cols:
            x = col[u]
            y = col[v]
            if x == y:
                return None
            j = x * n + y if x < y else y * n + x
            if j not in seen:
                seen.add(j)
                nxt.append(j)
    return nxt


def _table_word(cols: list[tuple[int, ...]], n: int, layers: list[list[int]]) -> list[int]:
    """The word the pair table's FIFO BFS labels for the pair ``layers[0][0]``,
    whose forward BFS layers up to its distance ``len(layers)`` are given.

    The BFS queues level d by (queue position of the labeller, letter, p, q):
    the labeller is the first queued pair at distance d-1 that some letter
    sends the pair to, the letter the least such, and p the state going to
    the labeller's smaller state (p < q for a diagonal labeller). The pairs
    on shortest paths are those of layer t at distance len(layers) - t, and
    they hold all their labellers, so ranking them one level at a time from
    the diagonal (ranked by state) gives each its table letter."""
    rank = {s * (n + 1): s for s in range(n)}
    step: dict[int, tuple[int, int]] = {}
    for layer in reversed(layers):
        keyed = []
        for j in layer:
            u, v = divmod(j, n)
            key = None
            for x, col in enumerate(cols):
                y = col[u]
                z = col[v]
                succ = y * n + z if y <= z else z * n + y
                r = rank.get(succ)
                if r is not None and (key is None or r < key[0]):
                    key = (r, x, u, v, j) if y <= z else (r, x, v, u, j)
                    step[j] = (x, succ)
            if key is not None:
                keyed.append(key)
        keyed.sort()
        rank = {key[4]: r for r, key in enumerate(keyed)}
    word = []
    j = layers[0][0]
    for _ in layers:
        x, j = step[j]
        word.append(x)
    return word


def eppstein_greedy(a: Automaton) -> SearchResult:
    """Greedy pair merging: repeatedly merge the pair of current states with
    the shortest merging word (ties: lexicographically smallest pair) until a
    single state remains. Raises NotSynchronizing if some pair never merges.

    Each merge picks its pair one of three exact ways. If the table has
    labelled a pair of members, then with m members it scans all m(m-1)/2
    member pairs if the table has labelled at least that many off-diagonal
    pairs, else walks the table's levels upwards from 1 and takes the least
    index in the first level holding a pair of members; since every
    unlabelled pair lies beyond its level, the least labelled distance is
    the least distance. If not, a forward BFS from each member pair looks
    ahead for the closest pair and reads off the word the grown table would
    give it, for at most about the work of expanding the table's last level
    (:func:`_merge_ahead`); failing that, the table grows to the first level
    that holds a pair of members."""
    n = a.n
    table = build_pair_table(a)
    dist = table.dist
    letter_of = table.letter
    order = table.order
    starts = table.starts
    cols = list(zip(*a.rows))  # cols[x][p] is the successor of p under x
    blocks: dict[tuple[int, ...], list[int]] = {}
    members = list(range(n))
    word: list[int] = []
    while len(members) > 1:
        best = -1
        m = len(members)
        inside = bytearray(n)
        for p in members:
            inside[p] = 1
        if m * (m - 1) // 2 <= len(order) - n:
            best_d = table.level + 1
            for i in range(m):
                base = members[i] * n
                for j in range(i + 1, m):
                    d = dist[base + members[j]]
                    if 0 <= d < best_d:
                        best_d = d
                        best = base + members[j]
                        if d == 1:
                            break
                if best_d == 1:
                    break
        else:
            for d in range(1, table.level + 1):
                hits = [
                    i for i in order[starts[d] : starts[d + 1]]
                    if inside[i // n] and inside[i % n]
                ]
                if hits:
                    best = min(hits)
                    break
        start = len(word)
        if best < 0:
            # no pair of members is labelled yet: look ahead from the member
            # pairs for at most the work of expanding the table's last level,
            # else grow to the first level with one
            ahead = _merge_ahead(cols, n, members, table.level + 1,
                                 (len(order) - starts[-2]) * len(cols))
            if ahead is not None:
                word += ahead
            else:
                best = min(table.grow(inside), default=-1)
                if best < 0:
                    raise NotSynchronizing("some state pair has no merging word")
        if best >= 0:
            p, q = divmod(best, n)
            while p != q:
                x = letter_of[p * n + q if p < q else q * n + p]
                word.append(x)
                p = cols[x][p]
                q = cols[x][q]
        members = sorted(set(_apply_word(cols, word[start:], members, blocks)))
    return SearchResult(len(word), tuple(word), "eppstein")


def exact_shortest(a: Automaton) -> SearchResult:
    """A shortest reset word, via forward BFS in the power automaton from the
    full state set. Limited to n <= EXACT_MAX_STATES since the reachable
    subset space can be exponential."""
    if a.n > EXACT_MAX_STATES:
        raise InstanceTooLarge(f"n={a.n} exceeds exact-search limit {EXACT_MAX_STATES}")
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
