import random
import sys
import tracemalloc

import pytest

from synchro import (
    UNBOUNDED,
    Automaton,
    InstanceTooLarge,
    NotSynchronizing,
    cerny,
    eppstein_greedy,
    exact_shortest,
    random_automaton,
    synchronize,
)
from synchro import baselines
from synchro.baselines import PairTable, _merge_ahead
from synchro.bench import solve
from conftest import brute_pair_merge_distance, eager_eppstein, no_shorter_reset_word

TWO_PERMUTATIONS = Automaton([(1, 2), (2, 0), (0, 1)])
# Two sinks, 0 and 2: the greedy merges {0, 1} and {2, 3}, then finds that
# {0, 2} never merges.
TWO_SINKS = Automaton([[0, 0], [0, 1], [2, 2], [2, 3]])


def pair_index(n, p, q):
    """The table index of the unordered pair {p, q}."""
    return p * n + q if p <= q else q * n + p


def grow_level(t):
    """Label the next level of pair table ``t`` and return its indices: with
    every state flagged, grow stops at the first new level."""
    return t.grow(b"\x01" * t.n)


def grown_table(a):
    """The pair table of ``a`` with every mergeable pair labelled."""
    t = PairTable(a)
    while grow_level(t):
        pass
    return t


class TestPairTable:
    def test_diagonal_is_zero(self):
        t = PairTable(cerny(5))
        assert all(t.dist[pair_index(5, p, p)] == 0 for p in range(5))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_forward_bfs_oracle(self, seed):
        a = random_automaton(8, 2, seed)
        t = grown_table(a)
        for p in range(8):
            for q in range(p + 1, 8):
                assert t.dist[p * 8 + q] == brute_pair_merge_distance(a, p, q, 64)

    def test_stored_letter_decrements_distance(self):
        a = random_automaton(8, 3, seed=17)
        t = grown_table(a)
        for p in range(8):
            for q in range(p + 1, 8):
                d = t.dist[p * 8 + q]
                if d <= 0:
                    continue
                letter = t.letter[p * 8 + q]
                succ = pair_index(8, a.delta(p, letter), a.delta(q, letter))
                assert t.dist[succ] == d - 1

    def test_incomplete_for_permutation_letters(self):
        # some pair of the 3 states stays unlabelled: 6 pairs with the diagonal
        assert len(grown_table(TWO_PERMUTATIONS).order) != 3 * 4 // 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_each_grow_labels_exactly_the_next_level(self, seed, k):
        a = random_automaton(8, k, seed)
        truth = {
            (p, q): brute_pair_merge_distance(a, p, q, 64)
            for p in range(8)
            for q in range(p + 1, 8)
        }
        t = PairTable(a)
        assert t.level == 0
        while True:
            level = t.level
            found = grow_level(t)
            if not found:
                break
            assert t.level == level + 1
            assert sorted(found) == sorted(
                p * 8 + q for (p, q), d in truth.items() if d == t.level
            )
            for (p, q), d in truth.items():
                labelled = t.dist[p * 8 + q] >= 0
                assert labelled == (0 <= d <= t.level)
                assert t.dist[p * 8 + q] == (d if labelled else -1)
        assert t.level == max(truth.values(), default=0)
        assert list(grow_level(t)) == [] and t.level == level

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_order_lists_each_level_as_grown(self, seed, k):
        t = PairTable(random_automaton(8, k, seed))
        assert t.level_start == 0
        assert list(t.order) == [p * 8 + p for p in range(8)]
        while True:
            found = grow_level(t)
            if not found:
                break
            assert list(t.order[t.level_start :]) == list(found)
            assert {t.dist[j] for j in found} == {t.level}
        assert {t.dist[j] for j in t.order[t.level_start :]} == {t.level}
        dists = [t.dist[j] for j in t.order]
        assert dists == sorted(dists)
        assert len(t.order) == sum(1 for x in t.dist if x >= 0)
        assert len(set(t.order)) == len(t.order)

    @pytest.mark.parametrize("seed", range(3))
    def test_full_growth_heap_stays_near_table_bytes(self, seed):
        # order is the BFS queue: growth keeps no per-level list of boxed
        # ints beside it (with such lists the peak was 2.3x the tables).
        a = random_automaton(300, 2, seed)
        tracemalloc.start()
        try:
            t = PairTable(a)
            assert list(t.grow(bytes(a.n))) == []  # no flagged pair: grow in full
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = sum(memoryview(x).nbytes for x in (t.dist, t.letter, t.order))
        assert peak < 1.5 * table_bytes

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eager_oracle_with_wide_alphabet(self, seed):
        # k > 256 stores letters in array('i') instead of one byte each.
        a = random_automaton(6, 300, seed)
        assert PairTable(a).letter.itemsize > 1
        assert eppstein_greedy(a).word == eager_eppstein(a)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_fresh_table_answers_any_pair(self, seed, k):
        a = random_automaton(8, k, seed)
        for p in range(8):
            for q in range(8):
                d = brute_pair_merge_distance(a, p, q, 64)
                t = PairTable(a)
                i = pair_index(8, q, p)
                if p != q:
                    # flagging p and q grows to the level of {p, q} only
                    inside = bytearray(8)
                    inside[p] = inside[q] = 1
                    assert list(t.grow(inside)) == ([i] if d > 0 else [])
                assert t.dist[i] == d
                if d >= 0:
                    assert t.level == d  # grown only as far as the answer
                else:
                    assert list(grow_level(t)) == []
                if d > 0:
                    x = t.letter[i]
                    assert t.dist[pair_index(8, a.delta(p, x), a.delta(q, x))] == d - 1

    def test_distances_past_127_widen_the_table(self):
        # cerny(17)'s pair distances reach 136 (cerny(16)'s stop at 120), so
        # one call widens the one-byte distances as level 128 starts
        a = cerny(17)
        t = PairTable(a)
        assert t.dist.typecode == "b"
        assert list(t.grow(bytes(17))) == []
        assert t.dist.typecode == "i" and t.level == 136
        for p in range(17):
            for q in range(p + 1, 17):
                assert t.dist[p * 17 + q] == brute_pair_merge_distance(a, p, q, 200)

    def test_widening_at_a_grow_entry_keeps_the_one_call_table(self):
        # grown one level per call, the table reaches level 127 in one byte
        # and widens on entry to the next call
        t = PairTable(cerny(17))
        while t.level < 127:
            assert grow_level(t)
        assert t.dist.typecode == "b"
        assert list(grow_level(t)) and t.level == 128
        while grow_level(t):
            pass
        whole = PairTable(cerny(17))
        whole.grow(bytes(17))
        assert t.dist.typecode == "i"
        assert (t.dist, t.letter, t.order) == (whole.dist, whole.letter, whole.order)


def table_merge_word(a, members):
    """The merging word of the closest pair of ``members`` (ties: the least
    index) read off the fully grown table, None if no pair merges, and
    whether some pair never merges."""
    n = a.n
    t = grown_table(a)
    dists = [(t.dist[p * n + q], p * n + q) for i, p in enumerate(members) for q in members[i + 1 :]]
    merging = [pair for pair in dists if pair[0] > 0]
    if not merging:
        return None, True
    p, q = divmod(min(merging)[1], n)
    word = []
    while p != q:
        x = t.letter[pair_index(n, p, q)]
        word.append(x)
        p, q = a.delta(p, x), a.delta(q, x)
    return word, len(merging) < len(dists)


def ahead_word(a, table, members):
    """The merging word ``_merge_ahead`` finds for ``members`` on ``table``
    (unbudgeted): its prefix, then the table's letters from the labelled pair
    it meets, which lies at the table's level; None if it finds none."""
    ahead = _merge_ahead(list(zip(*a.rows)), table, members, 10**9)
    if ahead is None:
        return None
    word, meet = ahead
    assert table.dist[meet] == table.level
    p, q = divmod(meet, a.n)
    while p != q:
        x = table.letter[pair_index(a.n, p, q)]
        word.append(x)
        p, q = a.delta(p, x), a.delta(q, x)
    return word


class TestMergeAhead:
    @pytest.mark.parametrize("n", [10, 40])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_gives_the_grown_tables_word(self, n, k, seed):
        a = random_automaton(n, k, seed)
        rng = random.Random(seed)
        for size in (2, 3, 6, n):
            members = sorted(rng.sample(range(n), size))
            expect, stuck = table_merge_word(a, members)
            # None once the BFS of a pair that never merges is searched
            allowed = [expect, None] if stuck else [expect]
            # a fresh table is met on the diagonal, its level 0, so the
            # prefix is the whole word
            assert ahead_word(a, PairTable(a), members) in allowed
            if expect is not None:
                # grown to each level below the least distance, the table is
                # met at that level, and the prefix and its letters from the
                # meeting pair give the same word
                table = PairTable(a)
                while table.level < len(expect) - 1:
                    grow_level(table)
                    assert ahead_word(a, table, members) in allowed

    def test_budget_zero_gives_none(self):
        a = random_automaton(10, 2, 0)
        assert _merge_ahead(list(zip(*a.rows)), PairTable(a), list(range(10)), 0) is None

    def test_stops_at_the_lower_bound(self):
        # {0, 1} meets the diagonal under letter 0, one letter ahead, which
        # no pair beats, so {0, 2}, which never merges, is not started:
        # starting {0, 1} costs 1 and expanding it k = 2, a budget of 3 in all
        cols = list(zip(*TWO_SINKS.rows))
        assert _merge_ahead(cols, PairTable(TWO_SINKS), [0, 1, 2, 3], 3) == ([0], 0)
        assert _merge_ahead(cols, PairTable(TWO_SINKS), [0, 1, 2, 3], 2) is None

    def test_pair_that_never_merges_gives_none(self):
        cols = list(zip(*TWO_SINKS.rows))
        assert _merge_ahead(cols, PairTable(TWO_SINKS), [0, 2], 10**9) is None
        with pytest.raises(NotSynchronizing):
            eppstein_greedy(TWO_SINKS)

    @pytest.mark.parametrize("seed", range(3))
    def test_far_merges_leave_the_table_small(self, seed, monkeypatch):
        # the far merges are found by looking ahead to the table, so growing
        # it labels only 3 815-4 064 of the 499 500 pairs
        labelled = []
        grow = PairTable.grow

        def counted(table, inside):
            found = grow(table, inside)
            labelled.append(len(table.order))
            return found

        monkeypatch.setattr(PairTable, "grow", counted)
        eppstein_greedy(random_automaton(1000, 2, seed))
        assert 0 < labelled[-1] < 6_000


class TestEppsteinGreedy:
    def test_cerny2(self):
        res = eppstein_greedy(cerny(2))
        assert res.length == 1 and res.word == (1,)

    def test_not_synchronizing(self):
        with pytest.raises(NotSynchronizing):
            eppstein_greedy(TWO_PERMUTATIONS)

    def test_not_synchronizing_after_merges(self):
        with pytest.raises(NotSynchronizing):
            exact_shortest(TWO_SINKS)
        with pytest.raises(NotSynchronizing):
            eppstein_greedy(TWO_SINKS)
        with pytest.raises(NotSynchronizing):
            synchronize(TWO_SINKS, UNBOUNDED)
        for tag in ("eppstein", "exact", "cutoff-ibfs:1", "cutoff-ibfs:log",
                    "cutoff-ibfs:n", "cutoff-ibfs:unbounded"):
            with pytest.raises(NotSynchronizing):
                solve(TWO_SINKS, tag)

    def test_single_state(self):
        res = eppstein_greedy(Automaton([[0, 0]]))
        assert res.length == 0 and res.word == ()

    @pytest.mark.parametrize("seed", range(25))
    def test_dominated_by_exact_and_verifies(self, seed):
        a = random_automaton(8, 2, seed)
        try:
            exact = exact_shortest(a)
        except NotSynchronizing:
            with pytest.raises(NotSynchronizing):
                eppstein_greedy(a)
            return
        res = eppstein_greedy(a)
        assert res.length >= exact.length
        assert res.length < a.n**3
        assert a.is_synchronizing_word(res.word)
        assert a.is_synchronizing_word(exact.word)

    @pytest.mark.parametrize(
        "a",
        [cerny(n) for n in (17, 25, 40, 70, 100)]
        + [random_automaton(n, k, s) for n in (60, 150) for k in (2, 3) for s in range(3)],
        ids=[f"cerny{n}" for n in (17, 25, 40, 70, 100)]
        + [f"random{n}-k{k}-s{s}" for n in (60, 150) for k in (2, 3) for s in range(3)],
    )
    def test_matches_eager_oracle_with_long_merge_words(self, a):
        # Sizes where the greedy picks pairs both by scanning member pairs and
        # by scanning the table's queue, and where cerny's merge words repeat 16- and
        # 64-letter runs (cerny(70) and cerny(100) apply 115 and 301 of their
        # 64-letter runs from cached columns).
        assert eppstein_greedy(a).word == eager_eppstein(a)

    def test_deterministic(self):
        a = random_automaton(40, 2, seed=5)
        assert eppstein_greedy(a).word == eppstein_greedy(a).word

    def test_a_merge_word_that_merges_nothing_raises(self, monkeypatch):
        # The first merge word is applied as if it left every state in
        # place; without the check the greedy would pick the same pair again
        # and, on a wrong table, repeat that merge forever.
        real = baselines._apply_word
        calls = []

        def first_call_merges_nothing(cols, word, states, blocks):
            calls.append(word)
            if len(calls) == 1:
                return list(states)
            return real(cols, word, states, blocks)

        monkeypatch.setattr(baselines, "_apply_word", first_call_merges_nothing)
        with pytest.raises(RuntimeError, match="merged no pair"):
            eppstein_greedy(cerny(5))
        assert len(calls) == 1

    def test_one_byte_distances_keep_the_heap_small(self):
        # the table stops at level 2-3 here, so its distances take one byte
        # each; four bytes each took the peak to 5.45 MB
        a = random_automaton(1000, 2, 0)
        tracemalloc.start()
        try:
            eppstein_greedy(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_heap_stays_near_word_and_table_bytes(self):
        # Only one pair in every _TAIL_STRIDE along a chain remembers where
        # its letters start in the word; remembering every pair read took
        # the peak to 1.8x.
        a = cerny(300)
        tracemalloc.start()
        try:
            word = eppstein_greedy(a).word
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t = PairTable(a)
        t.grow(bytes(a.n))  # no flagged pair: grow in full
        table_bytes = sum(memoryview(x).nbytes for x in (t.dist, t.letter, t.order))
        word_bytes = sys.getsizeof(list(word)) + sys.getsizeof(word)
        assert peak < 1.25 * (word_bytes + table_bytes)


class TestExactShortest:
    def test_cerny4(self):
        assert exact_shortest(cerny(4)).length == 9

    def test_single_state(self):
        res = exact_shortest(Automaton([[0]]))
        assert (res.algorithm, res.length, res.word) == ("exact", 0, ())

    def test_not_synchronizing(self):
        with pytest.raises(NotSynchronizing):
            exact_shortest(TWO_PERMUTATIONS)

    def test_instance_limit(self):
        # bad input, as a malformed automaton text is
        assert issubclass(InstanceTooLarge, ValueError)
        with pytest.raises(InstanceTooLarge):
            exact_shortest(random_automaton(21, 2, 0))

    def test_minimality_on_cerny4_by_enumeration(self):
        a = cerny(4)
        res = exact_shortest(a)
        assert a.is_synchronizing_word(res.word)
        assert no_shorter_reset_word(a, res.length)

    @pytest.mark.parametrize("seed", range(6))
    def test_minimality_on_random_n5_by_enumeration(self, seed):
        a = random_automaton(5, 2, seed)
        try:
            res = exact_shortest(a)
        except NotSynchronizing:
            return
        assert res.length <= 16
        assert a.is_synchronizing_word(res.word)
        assert no_shorter_reset_word(a, res.length)
