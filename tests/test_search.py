import math
import time
import tracemalloc
from itertools import product

import pytest

import synchro.search
from synchro import (
    Automaton,
    NotSynchronizing,
    UNBOUNDED,
    cerny,
    cutoff_ibfs,
    eppstein_greedy,
    exact_shortest,
    indegree_permutation,
    log_cap,
    random_automaton,
    start_set,
    synchronize,
)
from synchro.automaton import START_MODES
from synchro.settrie import SetTrie
from conftest import brute_capped_search, brute_preimage, brute_word_image

TWO_PERMUTATIONS = Automaton([(1, 2), (2, 0), (0, 1)])


def _standalone(a, maxsize=UNBOUNDED, **opts):
    return cutoff_ibfs(a, 5, maxsize, **opts)


class TestOptions:
    # both entry points take the same option keywords and check them first
    @pytest.mark.parametrize(
        "run", [_standalone, synchronize], ids=["cutoff_ibfs", "synchronize"]
    )
    def test_validation(self, run):
        with pytest.raises(ValueError):
            run(cerny(3), maxsize=0)
        with pytest.raises(ValueError):
            run(cerny(3), start_mode="nope")
        run(cerny(3), maxsize=UNBOUNDED)
        run(cerny(3), maxsize=True)  # a bool is an int

    def test_standalone_maxlen(self):
        with pytest.raises(ValueError):
            cutoff_ibfs(cerny(3), -1)
        assert cutoff_ibfs(cerny(3), 0, UNBOUNDED) is None

    @pytest.mark.parametrize("n", [1, 1000])
    @pytest.mark.parametrize(
        "bad",
        [
            dict(maxsize=0),
            dict(start_mode="bogus"),
            dict(maxsize=-3, start_mode="bogus"),
        ],
        ids=["maxsize", "start-mode", "both"],
    )
    def test_synchronize_checks_before_the_greedy(self, monkeypatch, n, bad):
        # n = 1 needs no search at all, and n = 1000 a greedy of about 0.5 s
        def no_greedy(a):
            raise AssertionError("the greedy ran before the options were checked")

        monkeypatch.setattr(synchro.search, "eppstein_greedy", no_greedy)
        with pytest.raises(ValueError):
            synchronize(random_automaton(n, 2, 0), **{"maxsize": 1, **bad})

    @pytest.mark.parametrize(
        "call",
        [
            lambda a: synchronize(a, 2.5),
            lambda a: cutoff_ibfs(a, 5, 2.5),
            lambda a: cutoff_ibfs(a, 5.0),
        ],
        ids=["synchronize-maxsize", "cutoff_ibfs-maxsize", "cutoff_ibfs-maxlen"],
    )
    def test_non_integer_options_fail_before_any_work(self, monkeypatch, call):
        def no_work(*args):
            raise AssertionError("work began before the options were checked")

        monkeypatch.setattr(synchro.search, "eppstein_greedy", no_work)
        monkeypatch.setattr(synchro.search, "_relabel", no_work)
        with pytest.raises(TypeError):
            call(random_automaton(1000, 2, 0))

    def test_log_cap(self):
        assert log_cap(1) == 1
        assert log_cap(2) == 1
        assert log_cap(100) == 7
        assert log_cap(1000) == 10

    def test_log_cap_is_exact_past_float_precision(self):
        # a float log2 rounds 2**53 + 1 down to 2**53 and read 53 here
        assert log_cap(2**53 + 1) == 54
        assert log_cap(2**60 + 1) == 61
        for e in range(1, 80):
            assert log_cap(2**e) == e and log_cap(2**e + 1) == e + 1
        # the float form is exact this low, so no small n changes its cap
        assert all(
            log_cap(n) == max(1, math.ceil(math.log2(n))) for n in range(2, 200_000)
        )


class TestCutoffIbfs:
    def test_cerny4(self):
        res = cutoff_ibfs(cerny(4), 20, 4)
        assert res is not None
        assert res.length == 9 == len(res.word)
        assert cerny(4).is_synchronizing_word(res.word)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_cerny_exact_with_cap_n(self, n):
        res = cutoff_ibfs(cerny(n), (n - 1) ** 2 + 1, n)
        assert res is not None and res.length == (n - 1) ** 2

    def test_maxlen_zero_finds_nothing(self):
        assert cutoff_ibfs(cerny(3), 0, 3) is None

    def test_single_state(self):
        res = cutoff_ibfs(Automaton([[0, 0]]), 0)
        assert res is not None and res.length == 0 and res.word == ()

    def test_not_found_within_budget(self):
        # shortest is 9; a tiny cap below the budget can miss it
        assert cutoff_ibfs(cerny(4), 8, 4) is None

    def test_never_finds_word_for_unsynchronizable(self):
        res = cutoff_ibfs(TWO_PERMUTATIONS, 50, UNBOUNDED)
        assert res is None

    @pytest.mark.parametrize("maxsize", [UNBOUNDED, 1], ids=["unbounded", "cap-1"])
    def test_repeating_frontier_ends_search(self, maxsize):
        # two disjoint 2-cycles: the frontier masks cycle, so the search must
        # stop long before maxlen instead of walking 10^9 levels
        a = Automaton([[1, 1], [0, 0], [3, 3], [2, 2]])
        t0 = time.perf_counter()
        res = cutoff_ibfs(a, 10**9, maxsize)
        assert res is None
        assert time.perf_counter() - t0 < 0.5

    def test_level_with_no_preimages_ends_search(self):
        # with cap 1, level 1 keeps {0, 2} and level 2 keeps {0}, which no
        # state enters: level 3 has no set to keep, and the search ends there
        # instead of walking to maxlen
        a = Automaton([[1, 2], [2, 1], [1, 1]])
        assert cutoff_ibfs(a, 9, 1) is None
        assert brute_capped_search(a, 9, 1) is None
        assert cutoff_ibfs(a, 10**9, 1) is None
        res = synchronize(a, 1)
        assert (res.algorithm, res.word) == ("eppstein", (0, 1))

    @pytest.mark.parametrize("seed", range(30))
    def test_unbounded_matches_exact_oracle(self, seed):
        a = random_automaton(7, 2, seed)
        try:
            exact_len = exact_shortest(a).length
        except NotSynchronizing:
            return
        res = cutoff_ibfs(a, 2**7, UNBOUNDED)
        assert res is not None
        assert res.length == exact_len
        assert a.is_synchronizing_word(res.word)

    def test_frontier_cap_respected(self):
        for seed in range(5):
            a = random_automaton(30, 2, seed)
            res = cutoff_ibfs(a, 60, 5)
            if res is None:
                continue
            assert all(size <= 5 for size in res.frontier_sizes[1:])

    def test_deterministic(self):
        a = random_automaton(40, 2, seed=8)
        r1, r2 = cutoff_ibfs(a, 80, 6), cutoff_ibfs(a, 80, 6)
        assert r1 is not None and r2 is not None
        assert r1.fingerprint() == r2.fingerprint()

    @pytest.mark.parametrize("n", [6, 12, 25])
    def test_goal_chain_rebuilt_from_word(self, n):
        # the search grows P_0 = {image of Q under w} by preimages,
        # P_l = preimage(P_{l-1}, w[L-l]), and stops at the first level that
        # reaches Q; rebuild that chain on the user's automaton from the word
        caps = (1, 3, UNBOUNDED)
        for seed in range(8):
            a = random_automaton(n, 2, seed)
            m, pi = indegree_permutation(a)
            for mode, cap, permute in product(START_MODES, caps, (False, True)):
                res = cutoff_ibfs(
                    a, 2 * n, cap, start_mode=mode, permute_by_indegree=permute
                )
                if res is None:
                    continue
                w = res.word
                chain = [brute_word_image(a, range(n), w)]
                for letter in reversed(w):
                    chain.append(brute_preimage(a, chain[-1], letter))
                assert chain[-1] == set(range(n))
                # no proper suffix of the word resets
                assert all(len(p) < n for p in chain[:-1])
                assert len(w) == res.length == len(res.frontier_sizes)
                # the search seeded with the start set, which names the same
                # states in the in-degree numbering as in the caller's
                (q,) = chain[0]
                seeds = start_set(m, mode) if permute else start_set(a, mode)
                assert (pi[q] if permute else q) in seeds
                assert res.frontier_sizes[0] == len(seeds)

    def test_start_modes_and_permutation_still_find_valid_words(self):
        a = random_automaton(25, 2, seed=12)
        for mode in ("all", "sink", "high-indegree"):
            for permute in (False, True):
                res = cutoff_ibfs(
                    a, 80, 8, start_mode=mode, permute_by_indegree=permute
                )
                assert res is not None
                assert a.is_synchronizing_word(res.word)


    @pytest.mark.parametrize(
        "a, length", [(cerny(8), 49), (random_automaton(20, 2, 1), 9)],
        ids=["cerny-8", "random-20"],
    )
    def test_class_hook_sees_every_table_preimage(self, monkeypatch, a, length):
        # A wrapper patched onto the class, as the benchmark's tracer does,
        # sees each set whose k preimages the search takes from the tables,
        # one call per set. The start singletons' preimages are read from
        # the inverse masks, so level 1 makes no call. Later levels call it
        # on each set not in the carry, and read the others' preimages from
        # there, a kept start singleton's too. The carry gains each set a
        # call expands, and after a level that leaves it over four times
        # that level's frontier, keeps only that frontier, so a set the
        # level before expanded never reaches the kernel.
        calls = []
        frontiers = []  # the cut of each level, the next level's input
        marks = []  # len(calls) at each cut
        pre, take = Automaton.preimage_bits, SetTrie.take_largest

        def counting(self, bits):
            calls.append((self, bits))
            return pre(self, bits)

        def recording(self, c):
            taken = take(self, c)
            frontiers.append(list(taken))
            marks.append(len(calls))
            return taken

        monkeypatch.setattr(Automaton, "preimage_bits", counting)
        monkeypatch.setattr(SetTrie, "take_largest", recording)
        assert cutoff_ibfs(a, 1, 8) is None
        assert calls == []
        frontiers.clear()
        marks.clear()
        res = synchronize(a, 8)
        assert res.length == length
        assert [len(f) for f in frontiers] == res.frontier_sizes[1:]
        assert marks[0] == 0  # level 1 takes no table preimage
        # every call is on the search's own mirrored copy
        (r,) = {auto for auto, _ in calls}
        # the goal level stops after the first set with a full preimage
        last = frontiers[-1]
        stop = next(
            i for i, bits in enumerate(last)
            if r.full_bits in pre(r, bits)
        )
        expanded = frontiers[:-1] + [last[: stop + 1]]
        ends = marks + [len(calls)]
        start = {1 << q for q in range(a.n)}
        kept = [bits for bits in expanded[0] if bits in start]
        assert start.isdisjoint(bits for _, bits in calls[ends[0] : ends[1]])
        carry = set(start)
        before = start  # level 1's frontier
        trims = older_hits = 0
        for i, sets in enumerate(expanded):  # level i + 2
            if len(carry) > 4 * len(before):
                carry = set(before)
                trims += 1
            got = [bits for _, bits in calls[ends[i] : ends[i + 1]]]
            assert got == [b for b in sets if b not in carry]
            assert before.isdisjoint(got)
            older_hits += sum(b in carry and b not in before for b in sets)
            carry.update(got)
            before = set(sets)
        assert trims
        if a == cerny(8):
            assert kept  # level 2 reads these from the carry
            # a narrow frontier is mostly the level before's
            assert len(calls) < sum(map(len, expanded)) // 4
        else:
            # a set expanded two or more levels back is not expanded again
            assert older_hits

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cap", [3, 8, UNBOUNDED], ids=["cap-3", "cap-8", "unbounded"])
    def test_level_ops_count_the_lookups_made(self, monkeypatch, seed, cap):
        # ceil(n/8) per set whose k preimages come from the tables, none
        # for a set read from the carry or a start singleton, and
        # one per dedup probe, which the oracle counts on member sets
        calls = []
        pre = Automaton.preimage_bits

        def counting(self, bits):
            calls.append(bits)
            return pre(self, bits)

        monkeypatch.setattr(Automaton, "preimage_bits", counting)
        a = random_automaton(40, 2, seed)
        res = cutoff_ibfs(a, 120, cap)
        assert res is not None
        length, word, _, probes, distinct = brute_capped_search(a, 120, cap)
        assert (res.length, res.word) == (length, word)
        assert res.level_probes == probes and res.level_distinct == distinct
        assert len(res.level_ops) == len(probes) == res.length
        assert sum(res.level_ops) == len(calls) * 5 + sum(probes)

    def test_unbounded_search_memory_stays_small(self):
        # one kept position per set and level, and no record per preimage
        a = random_automaton(40, 2, 0)
        tracemalloc.start()
        try:
            res = cutoff_ibfs(a, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res is not None
        assert peak < 2.0e6

    @pytest.mark.parametrize("const", [0, 1])
    def test_goal_level_probes_stop_at_the_goal_letter(self, const):
        # letter `const` sends every state to 0, the other letter cycles the
        # states, so the first set, {0}, has the full preimage under `const`;
        # the cycle's preimage {2} is a probe only when offered before it
        cycle = [1, 2, 0]
        a = Automaton([[0, q] if const == 0 else [q, 0] for q in cycle])
        res = cutoff_ibfs(a, 5)
        assert res.word == (const,)
        assert res.level_probes == [const] and res.level_distinct == []
        assert res.level_ops == [const]

    def test_level_one_makes_no_table_lookup(self):
        # cerny(20): the 40 level-1 preimages are read from the inverse
        # masks, so level 1 counts only its 39 dedup probes, since only {0}
        # has an empty preimage
        res = synchronize(cerny(20), 20)
        assert res.level_ops[0] == 39


class TestSynchronize:
    def test_cerny10(self):
        a = cerny(10)
        res = synchronize(a, 10)
        assert res.length == 81
        assert a.is_synchronizing_word(res.word)

    def test_not_synchronizing(self):
        with pytest.raises(NotSynchronizing):
            synchronize(TWO_PERMUTATIONS, 3)

    def test_single_state(self):
        res = synchronize(Automaton([[0, 0]]), 1)
        assert res.length == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_never_worse_than_eppstein(self, seed):
        a = random_automaton(8, 2, seed)
        try:
            epp = eppstein_greedy(a)
        except NotSynchronizing:
            return
        res = synchronize(a, 4)
        assert res.length <= epp.length
        assert a.is_synchronizing_word(res.word)

    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("permute", [False, True], ids=["plain", "permuted"])
    def test_caller_automaton_keeps_no_tables(self, start_mode, permute):
        # the search builds its tables, start set included, on its relabelled
        # copy and the pair table reads the columns, so no table outlives the
        # call on the caller's automaton; the in-degree order counts from the
        # rows
        opts = dict(start_mode=start_mode, permute_by_indegree=permute)
        for solve in (
            lambda a: synchronize(a, 12, **opts),
            lambda a: cutoff_ibfs(a, 121, 12, **opts),
        ):
            a = cerny(12)
            assert solve(a).length == 121
            assert a._pre_tables is None
            assert a._inv_bits is None

    def test_falls_back_to_eppstein_word(self):
        # cap 1 on this automaton cannot beat the bound within maxlen
        a = cerny(4)
        epp = eppstein_greedy(a)
        res = synchronize(a, 1)
        if res.algorithm == "eppstein":
            assert res.word == epp.word
        assert res.length <= epp.length
