import pytest

from synchro import (
    Automaton,
    InstanceTooLarge,
    NotSynchronizing,
    build_pair_table,
    cerny,
    eppstein_greedy,
    exact_shortest,
    random_automaton,
)
from conftest import brute_pair_merge_distance, no_shorter_reset_word

TWO_PERMUTATIONS = Automaton([(1, 2), (2, 0), (0, 1)])


class TestPairTable:
    def test_diagonal_is_zero(self):
        t = build_pair_table(cerny(5))
        assert all(t.distance(p, p) == 0 for p in range(5))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_forward_bfs_oracle(self, seed):
        a = random_automaton(8, 2, seed)
        t = build_pair_table(a)
        for p in range(8):
            for q in range(p + 1, 8):
                assert t.distance(p, q) == brute_pair_merge_distance(a, p, q, 64)

    def test_stored_letter_decrements_distance(self):
        a = random_automaton(8, 3, seed=17)
        t = build_pair_table(a)
        for p in range(8):
            for q in range(p + 1, 8):
                d = t.distance(p, q)
                if d <= 0:
                    continue
                letter = t.merge_letter(p, q)
                assert t.distance(a.delta(p, letter), a.delta(q, letter)) == d - 1

    def test_incomplete_for_permutation_letters(self):
        assert not build_pair_table(TWO_PERMUTATIONS).complete


class TestEppsteinGreedy:
    def test_cerny2(self):
        res = eppstein_greedy(cerny(2))
        assert res.length == 1 and res.word == (1,)

    def test_not_synchronizing(self):
        with pytest.raises(NotSynchronizing):
            eppstein_greedy(TWO_PERMUTATIONS)

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

    def test_deterministic(self):
        a = random_automaton(40, 2, seed=5)
        assert eppstein_greedy(a).word == eppstein_greedy(a).word


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
        with pytest.raises(InstanceTooLarge):
            exact_shortest(random_automaton(21, 2, 0))
        exact_shortest(random_automaton(21, 2, 0), max_states=21)

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
