import time
from itertools import product

import pytest

from synchro import (
    Automaton,
    NotSynchronizing,
    SearchParams,
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
from conftest import brute_preimage, brute_word_image

TWO_PERMUTATIONS = Automaton([(1, 2), (2, 0), (0, 1)])


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(maxlen=-1)
        with pytest.raises(ValueError):
            SearchParams(maxlen=1, maxsize=0)
        with pytest.raises(ValueError):
            SearchParams(maxlen=1, start_mode="nope")
        SearchParams(maxlen=0, maxsize=UNBOUNDED)

    def test_log_cap(self):
        assert log_cap(1) == 1
        assert log_cap(2) == 1
        assert log_cap(100) == 7
        assert log_cap(1000) == 10


class TestCutoffIbfs:
    def test_cerny4(self):
        res = cutoff_ibfs(cerny(4), SearchParams(maxlen=20, maxsize=4))
        assert res is not None
        assert res.length == 9 == len(res.word)
        assert cerny(4).is_synchronizing_word(res.word)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_cerny_exact_with_cap_n(self, n):
        res = cutoff_ibfs(
            cerny(n), SearchParams(maxlen=(n - 1) ** 2 + 1, maxsize=n)
        )
        assert res is not None and res.length == (n - 1) ** 2

    def test_maxlen_zero_finds_nothing(self):
        assert cutoff_ibfs(cerny(3), SearchParams(maxlen=0, maxsize=3)) is None

    def test_single_state(self):
        res = cutoff_ibfs(Automaton([[0, 0]]), SearchParams(maxlen=0))
        assert res is not None and res.length == 0 and res.word == ()

    def test_not_found_within_budget(self):
        # shortest is 9; a tiny cap below the budget can miss it
        assert cutoff_ibfs(cerny(4), SearchParams(maxlen=8, maxsize=4)) is None

    def test_never_finds_word_for_unsynchronizable(self):
        res = cutoff_ibfs(TWO_PERMUTATIONS, SearchParams(maxlen=50, maxsize=UNBOUNDED))
        assert res is None

    @pytest.mark.parametrize("maxsize", [UNBOUNDED, 1], ids=["unbounded", "cap-1"])
    def test_repeating_frontier_ends_search(self, maxsize):
        # two disjoint 2-cycles: the frontier masks cycle, so the search must
        # stop long before maxlen instead of walking 10^9 levels
        a = Automaton([[1, 1], [0, 0], [3, 3], [2, 2]])
        t0 = time.perf_counter()
        res = cutoff_ibfs(a, SearchParams(maxlen=10**9, maxsize=maxsize))
        assert res is None
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("seed", range(30))
    def test_unbounded_matches_exact_oracle(self, seed):
        a = random_automaton(7, 2, seed)
        try:
            exact_len = exact_shortest(a).length
        except NotSynchronizing:
            return
        res = cutoff_ibfs(a, SearchParams(maxlen=2**7, maxsize=UNBOUNDED))
        assert res is not None
        assert res.length == exact_len
        assert a.is_synchronizing_word(res.word)

    def test_frontier_cap_respected(self):
        for seed in range(5):
            a = random_automaton(30, 2, seed)
            res = cutoff_ibfs(a, SearchParams(maxlen=60, maxsize=5))
            if res is None:
                continue
            assert all(size <= 5 for size in res.frontier_sizes[1:])

    def test_deterministic(self):
        a = random_automaton(40, 2, seed=8)
        p = SearchParams(maxlen=80, maxsize=6)
        r1, r2 = cutoff_ibfs(a, p), cutoff_ibfs(a, p)
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
                res = cutoff_ibfs(a, SearchParams(2 * n, cap, mode, permute))
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
                # the search seeded with the start set of the automaton it
                # ran on, the relabelled one under permutation
                (q,) = chain[0]
                seeds = start_set(m, mode) if permute else start_set(a, mode)
                assert (pi[q] if permute else q) in seeds
                assert res.frontier_sizes[0] == len(seeds)

    def test_start_modes_and_permutation_still_find_valid_words(self):
        a = random_automaton(25, 2, seed=12)
        for mode in ("all", "sink", "high-indegree"):
            for permute in (False, True):
                res = cutoff_ibfs(
                    a,
                    SearchParams(
                        maxlen=80,
                        maxsize=8,
                        start_mode=mode,
                        permute_by_indegree=permute,
                    ),
                )
                assert res is not None
                assert a.is_synchronizing_word(res.word)


    def test_class_hook_sees_every_table_preimage(self, monkeypatch):
        # A wrapper patched onto the class, as the benchmark's tracer does,
        # sees each preimage from level 2 on; level 1 reads the inverse masks.
        calls = []
        orig = Automaton.preimage_bits

        def counting(self, bits, a):
            calls.append(bits)
            return orig(self, bits, a)

        monkeypatch.setattr(Automaton, "preimage_bits", counting)
        assert cutoff_ibfs(cerny(8), SearchParams(maxlen=1, maxsize=8)) is None
        assert calls == []
        res = synchronize(cerny(8), 8)
        k, sizes, length = 2, res.frontier_sizes, res.length
        assert length == 49
        assert k * sum(sizes[1 : length - 1]) < len(calls) <= k * sum(sizes[1:length])

    def test_level_one_counts_one_lookup_per_preimage(self):
        # cerny(20): 40 level-1 preimages, one lookup each (not ceil(20/8)),
        # plus 39 dedup probes, since only {0} has an empty preimage
        res = synchronize(cerny(20), 20)
        assert res.level_ops[0] == 40 + 39


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
        # the search builds its tables on a copy and the pair table reads the
        # columns, so no table outlives the call on the caller's automaton;
        # only the start modes and the relabelling read the caller's inverse
        opts = dict(start_mode=start_mode, permute_by_indegree=permute)
        for solve in (
            lambda a: synchronize(a, 12, **opts),
            lambda a: cutoff_ibfs(a, SearchParams(maxlen=121, maxsize=12, **opts)),
        ):
            a = cerny(12)
            assert solve(a).length == 121
            assert a._pre_tables is None
            if start_mode == "all" and not permute:
                assert a._inv_bits is None

    def test_falls_back_to_eppstein_word(self):
        # cap 1 on this automaton cannot beat the bound within maxlen
        a = cerny(4)
        epp = eppstein_greedy(a)
        res = synchronize(a, 1)
        if res.algorithm == "eppstein":
            assert res.word == epp.word
        assert res.length <= epp.length
