"""Eppstein's greedy pair-merging algorithm and an exact BFS oracle."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import combinations
from typing import Sequence

from .automaton import Automaton, _apply_word
from .results import InstanceTooLarge, NotSynchronizing, SearchResult

# Largest state count exact_shortest accepts by default: the power automaton
# it explores can have 2^n subsets.
EXACT_MAX_STATES = 20

# The greedy remembers where in its word the table letters of a pair start,
# for the pairs whose distance is a multiple of this stride. A labelled pair's
# distance and letter never change, so neither does its chain of table
# letters down to the diagonal: the dist[pair] letters from the stored
# position are exactly that pair's, and a later walk that meets the pair
# copies them. A walk reads fewer than _TAIL_STRIDE letters before it meets
# a stored pair or stores one, and a chain shorter than that stores nothing;
# storing every pair would cost a dict entry per letter read.
_TAIL_STRIDE = 64

Columns = tuple[tuple[int, ...], ...]  # Automaton._cols: [x][p] is p's successor


class PairTable:
    """Shortest merging words for unordered state pairs, built one distance
    level at a time.

    ``dist[p*n+q]`` (p < q) is the length of a shortest word whose image of
    {p, q} is a singleton and ``letter[p*n+q]`` the first letter of one such
    word; ``dist[p*n+p]`` is 0. The table is the FIFO BFS from the diagonal
    backwards over the pair automaton, paused between levels: invariant,
    every pair at distance <= ``level`` is labelled and the rest read -1.
    ``order`` is the BFS queue, every labelled index in BFS order, so
    distances never decrease along it: level d is its run at distance d,
    level 0 the diagonal, and the last labelled level runs from
    ``level_start`` to its end. Letters take one byte each when k <= 256,
    and distances one byte until a level passes 127. :meth:`grow` labels
    further levels, expanding the queue one pair at a time, so it costs per
    pair and not per level. Since the queue order is that of one
    uninterrupted BFS, so is every stored letter.
    """

    __slots__ = ("n", "dist", "letter", "order", "level", "level_start", "_inv")

    def __init__(self, a: Automaton):
        n = a.n
        self.n = n
        self.dist = array("b", [-1]) * (n * n)
        self.letter = bytearray(n * n) if a.k <= 256 else array("i", [0]) * (n * n)
        self.level = 0
        self.level_start = 0
        self.order = array("i", range(0, n * n, n + 1))
        self.dist[:: n + 1] = array("b", bytes(n))
        # (letter, per-state preimage lists, ascending), one entry per letter,
        # read off the columns so that no table is cached on ``a``
        self._inv = []
        for x, col in enumerate(a._cols):
            lists: list[list[int]] = [[] for _ in range(n)]
            for q, p in enumerate(col):
                lists[p].append(q)
            self._inv.append((x, lists))

    def grow(self, inside: Sequence[int]) -> list[int]:
        """Label levels until one holds pairs of states both flagged in
        ``inside``, any sequence of 0/1 ints indexed by state (a list reads
        fastest), and return their indices ``p*n+q`` in BFS order (all-ones
        flags: the next level); once the BFS ends, return [] instead.

        The first label of level 128 overflows the one-byte ``dist`` before
        anything of that pair is written. Level 127 is then complete, no
        pair beyond it is labelled and no hit is pending, so the distances
        widen to four bytes and the growth runs again from ``level_start``,
        labelling exactly what it would have."""
        try:
            return self._grow(inside)
        except OverflowError:
            dist = self.dist
            wide = array("i", [-1]) * len(dist)
            for i in self.order:
                wide[i] = dist[i]
            self.dist = wide
            return self._grow(inside)

    def _grow(self, inside: Sequence[int]) -> list[int]:
        """:meth:`grow` in distances of the current width.

        One ``head`` position runs through ``order`` from ``level_start``;
        when it reaches ``end``, the end of the level being expanded, the
        next level is complete from there up to the queue's end."""
        n, dist, letter, order, inv = (
            self.n, self.dist, self.letter, self.order, self._inv)
        append = order.append
        d1 = self.level + 1
        head = self.level_start
        end = len(order)
        hits: list[int] = []
        while True:
            if head == end:
                if len(order) == end:
                    return hits
                self.level = d1
                self.level_start = end
                end = len(order)
                if hits:
                    return hits
                d1 += 1
            i = order[head]
            head += 1
            u = i // n
            v = i - u * n
            for x, pre in inv:
                inv_u = pre[u]
                inv_v = pre[v]
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


def build_pair_table(a: Automaton) -> PairTable:
    """The pair table of ``a`` with level 0 (the diagonal) labelled."""
    return PairTable(a)


def _merge_ahead(
    cols: Columns, table: PairTable, members: list[int], budget: int
) -> tuple[list[int], int] | None:
    """The first letters of the merging word a fully grown ``table`` gives the
    closest pair of ``members`` (sorted; no pair of them labelled; ties: the
    lexicographically smallest pair), up to the labelled pair they lead to,
    and that pair; or None once the search would cost more than ``budget``,
    or when no member pair merges.

    One forward BFS over pairs runs from all member pairs at once, with one
    seen set: layer 0 is the member pairs in ``combinations`` order, and each
    pair records the pair that first reached it, so that its source, the
    member pair it was reached from, is the end of that chain. A pair's
    first depth t is its least distance from the member pairs. Layer 0 is
    ordered by source, and each layer is expanded in order, so each layer is
    too, and a pair's source is the smallest member pair at distance t from
    it. The search stops at the first labelled pair it reaches, at depth t,
    the least distance from a member pair to the table; its source is the
    smallest member pair at that distance. Every pair at distance <= l =
    ``table.level`` is labelled and every other pair lies beyond l, so each
    member pair's merging distance is l plus its distance to the table:
    the source is the closest member pair. Only its own BFS layers, with
    their own seen set, are then rebuilt for :func:`_table_word`.

    The budget is charged one unit per member pair before layer 0 is built,
    so a search with more member pairs than budget returns at once, then k
    per pair of each layer before it is expanded; each pair is expanded once.
    The greedy passes about the work of expanding the table's last level,
    the least a :meth:`PairTable.grow` costs, so a look-ahead that gives up
    costs no more than the growth it falls back to."""
    n, dist = table.n, table.dist
    k = len(cols)
    m = len(members)
    budget -= m * (m - 1) // 2
    if budget < 0:
        return None
    layer = [p * n + q for p, q in combinations(members, 2)]
    reached_from = dict.fromkeys(layer, -1)  # layer 0 is reached from none
    depth = 1
    while layer:
        budget -= k * len(layer)
        if budget < 0:
            return None
        nxt = []
        for i in layer:
            u, v = divmod(i, n)
            for col in cols:
                x = col[u]
                y = col[v]
                j = x * n + y if x <= y else y * n + x
                if j not in reached_from:
                    reached_from[j] = i
                    if dist[j] >= 0:
                        while reached_from[i] >= 0:
                            i = reached_from[i]  # back to the source
                        return _table_word(cols, table, _own_layers(cols, n, i, depth))
                    nxt.append(j)
        layer = nxt
        depth += 1
    return None


def _own_layers(cols: Columns, n: int, pair: int, depth: int) -> list[list[int]]:
    """The forward BFS layers 0..``depth`` of ``pair`` alone, each the pairs
    first reached at that depth, in the order the BFS reaches them."""
    layers = [[pair]]
    seen = {pair}
    for _ in range(depth):
        nxt = []
        for i in layers[-1]:
            u, v = divmod(i, n)
            for col in cols:
                x = col[u]
                y = col[v]
                j = x * n + y if x <= y else y * n + x
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        layers.append(nxt)
    return layers


def _table_word(
    cols: Columns, table: PairTable, layers: list[list[int]]
) -> tuple[list[int], int]:
    """The letters the pair table's FIFO BFS labels for the pair
    ``layers[0][0]`` up to its forward BFS layer ``layers[-1]``, the first
    that holds labelled pairs, and the labelled pair they lead to.

    The BFS queues level d by (queue position of the labeller, letter, p, q):
    the labeller is the first queued pair at distance d-1 that some letter
    sends the pair to, the letter the least such, and p the state going to
    the labeller's smaller state (p < q for a diagonal labeller). The pairs
    on shortest paths hold all their labellers, so ranking them one layer at
    a time back from the labelled pairs of the last (ranked by queue
    position) gives each its table letter."""
    n, order, level_start = table.n, table.order, table.level_start
    rank = {j: order.index(j, level_start) for j in layers[-1] if table.dist[j] >= 0}
    step: dict[int, tuple[int, int]] = {}
    for layer in reversed(layers[:-1]):
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
    while j in step:
        x, j = step[j]
        word.append(x)
    return word, j


def eppstein_greedy(a: Automaton) -> SearchResult:
    """Greedy pair merging: repeatedly merge the pair of current states with
    the shortest merging word (ties: lexicographically smallest pair) until a
    single state remains. Raises NotSynchronizing if some pair never merges,
    and RuntimeError if a merge word merges no pair, which is a bug.

    Each merge picks its pair one of three exact ways. If the table has
    labelled a pair of members, then with m members it scans all m(m-1)/2
    member pairs if the table has labelled at least that many off-diagonal
    pairs, else walks ``order`` past the diagonal to the first pair of
    members and takes the first member pair in an index-sorted copy of its
    level, made when a walk first ends in that level and kept, since a
    labelled level never changes; as every unlabelled pair lies beyond the
    table's level, the least labelled distance is the least distance. If
    not, one forward BFS from all member pairs at once, with one seen set,
    looks ahead to the table's labelled pairs for the closest pair and the
    letters the grown table would give it up to one of them
    (:func:`_merge_ahead`). Its budget is k times the size of the table's
    last level, about the work of expanding that level. Starting costs one
    unit per member pair, so with more member pairs than that it gives up
    before building anything, and each layer costs k per pair in it, each
    pair reached once. Failing that, the table grows to the first level
    that holds a pair of members. Either way the rest of the word is the
    table's letters along the pair's chain of labellers. All three give the
    lexicographically smallest pair at the least distance, so the words are
    those of a greedy that reads a fully built table; the table grows only
    when no other way finds a pair, which on random automata leaves its
    widest levels unbuilt.

    A chain that meets a pair an earlier merge already read copies that
    pair's letters from the word instead of reading them again. The copy is
    exact: a labelled pair's letter and distance never change, so neither
    does its chain, and the position stored for a pair (one in every
    ``_TAIL_STRIDE`` along a chain) starts exactly its table letters.

    The word takes one byte per letter while k <= 256, as the table's
    letters do, so a copy is a slice of bytes and each merge word reaches
    :func:`_apply_word` as bytes; it is returned as a tuple of ints."""
    n = a.n
    table = build_pair_table(a)
    dist = table.dist
    letter_of = table.letter
    order = table.order
    cols = a._cols  # cols[x][p] is the successor of p under x
    blocks: dict[bytes | tuple[int, ...], list[int]] = {}
    stride = _TAIL_STRIDE
    tail: dict[int, int] = {}  # pair index -> where its table letters start
    levels: dict[int, array] = {}  # distance -> that labelled level, ascending
    members = list(range(n))
    word: bytearray | list[int] = bytearray() if a.k <= 256 else []
    frozen = bytes if a.k <= 256 else tuple  # a hashable copy of a merge word
    while len(members) > 1:
        best = -1
        m = len(members)
        inside = [0] * n
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
        else:
            for i in order[n:]:
                if inside[i // n] and inside[i % n]:
                    d = dist[i]
                    level = levels.get(d)
                    if level is None:
                        at = bisect_left(order, d, n, key=dist.__getitem__)
                        end = bisect_right(order, d, at, key=dist.__getitem__)
                        level = levels[d] = array("i", sorted(order[at:end]))
                    for best in level:  # i is there, so some member pair is
                        if inside[best // n] and inside[best % n]:
                            break
                    break
        start = len(word)
        if best < 0:
            # no pair of members is labelled yet: look ahead from the member
            # pairs to the table for at most the work of expanding its last
            # level, else grow to the first level with one
            ahead = _merge_ahead(cols, table, members,
                                 (len(order) - table.level_start) * len(cols))
            if ahead is not None:
                prefix, best = ahead
                word.extend(prefix)
            else:
                best = min(table.grow(inside), default=-1)
                dist = table.dist  # the one call that can widen it
                if best < 0:
                    raise NotSynchronizing("some state pair has no merging word")
        p, q = divmod(best, n)
        d = dist[best]
        while p != q:
            j = p * n + q if p < q else q * n + p
            if not d % stride:
                pos = tail.get(j)
                if pos is not None:
                    word += word[pos : pos + d]
                    break
                tail[j] = len(word)
            x = letter_of[j]
            word.append(x)
            p = cols[x][p]
            q = cols[x][q]
            d -= 1
        members = sorted(set(_apply_word(cols, frozen(word[start:]), members, blocks)))
        if len(members) >= m:
            # a wrong merge word would have the same pair merged again forever
            raise RuntimeError("a merge word merged no pair of states")
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
