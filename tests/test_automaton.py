import io
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st, target

from synchro import (
    Automaton,
    AutomatonFormatError,
    NotSynchronizing,
    cerny,
    eppstein_greedy,
    exact_shortest,
    indegree_permutation,
    parse_automaton,
    random_automaton,
    serialize_automaton,
    start_set,
)
from synchro.automaton import _BLOCK, _LONG, _MAX_BLOCKS, _apply_word, _byte_tables
from conftest import brute_image, brute_preimage, brute_synchronizes


class TestAutomatonConstruction:
    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            Automaton([])
        with pytest.raises(ValueError):
            Automaton([[0, 0], [0]])
        with pytest.raises(ValueError):
            Automaton([[0], [2]])
        for n, k in ((0, 2), (2, 0)):
            with pytest.raises(ValueError, match="need n >= 1 and k >= 1"):
                random_automaton(n, k, 0)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 5], [0]], "transition delta(0, 1) = 5 out of range [0, 2)"),
            ([[0, 0], [0], [9, 0]], "row 1 has 1 entries, expected 2"),
            ([[0], []], "row 1 has 0 entries, expected 1"),
            ([[0, 1], [-1, 0]], "transition delta(1, 0) = -1 out of range [0, 2)"),
            ([[0, 1], [1, 2]], "transition delta(1, 1) = 2 out of range [0, 2)"),
        ],
        ids=["range-before-ragged", "ragged-before-range", "empty-row", "negative",
             "too-large"],
    )
    def test_names_the_first_fault(self, rows, message):
        # rows in order, and within a row its entries in order
        with pytest.raises(ValueError) as fault:
            Automaton(rows)
        assert str(fault.value) == message

    @pytest.mark.parametrize("entry", [1.9, "1"], ids=["float", "str"])
    def test_rejects_non_integer_entries(self, entry):
        # int() would truncate 1.9 to state 1 and parse "1"; a state is an int
        with pytest.raises(TypeError):
            Automaton([[entry, 0], [0, 1]])

    def test_integer_entries_become_ints(self):
        # an exact int is kept as it is; anything else goes through index(),
        # which refuses a float (test_rejects_non_integer_entries)
        class Sub(int):
            pass

        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        plain = Automaton([[0, 1], [1, 1]])
        for make in (bool, Sub, Index):
            a = Automaton([[make(0), make(1)], [make(1), make(1)]])
            assert a == plain
            assert {type(p) for row in a.rows for p in row} == {int}

    def test_inverse_is_exact_relational_inverse(self):
        a = random_automaton(9, 3, seed=5)
        inv = a.build_inverse()
        assert a.build_inverse() is inv  # built once, then kept
        for letter in range(a.k):
            total = 0
            for p in range(a.n):
                qs = [q for q in range(a.n) if inv[letter][p] >> q & 1]
                total += len(qs)
                for q in qs:
                    assert a.delta(q, letter) == p
            assert total == a.n


class TestImagePreimage:
    def test_singleton_image_under_cycle_letter(self):
        a = cerny(4)
        assert a.image(0b0001, 0) == 0b0010

    def test_empty_set(self):
        a = cerny(4)
        assert a.image(0, 0) == 0
        assert a.preimage(0, 1) == 0

    def test_full_image_under_merging_letter(self):
        a = cerny(4)
        expected = sorted(brute_image(a, range(4), 1))
        assert expected == [1, 2, 3]
        assert a.image(a.full_bits, 1) == 0b1110

    def test_preimage_of_full_is_full(self):
        a = random_automaton(7, 2, seed=3)
        for letter in range(a.k):
            assert a.preimage(a.full_bits, letter) == a.full_bits

    def test_preimage_example_on_cerny(self):
        a = cerny(4)
        expected = sorted(brute_preimage(a, {1}, 1))
        assert expected == [0, 1]
        assert a.preimage(0b0010, 1) == 0b0011

    @pytest.mark.parametrize("n,seed", [(5, 0), (9, 1), (12, 2)])
    def test_adjointness_exhaustive(self, n, seed):
        a = random_automaton(n, 2, seed)
        for bits in range(1 << n):
            for letter in range(a.k):
                pre = a.preimage(bits, letter)
                for q in range(n):
                    assert (pre >> q & 1) == (bits >> a.delta(q, letter) & 1)
                assert a.image(bits, letter).bit_count() <= bits.bit_count()

    def test_image_matches_brute_oracle(self):
        a = random_automaton(11, 3, seed=7)
        for members in [[0, 2, 9], range(11), [5]]:
            bits = sum(1 << q for q in members)
            for letter in range(3):
                assert a.image(bits, letter) == sum(
                    1 << p for p in brute_image(a, members, letter)
                )

    @pytest.mark.parametrize(
        "bits", [-1, 1 << 5, 1 << 7], ids=["negative", "bit-n", "last-byte"]
    )
    @pytest.mark.parametrize("method", ["image", "preimage"])
    def test_mask_out_of_range_rejected(self, method, bits):
        # n=5: bits 5..7 still lie in the last byte, which preimage_bits
        # reads through a zero-padded table and so would silently ignore
        with pytest.raises(ValueError):
            getattr(random_automaton(5, 2, seed=0), method)(bits, 0)

    @pytest.mark.parametrize("method", ["image", "preimage"])
    def test_letter_out_of_range_rejected(self, method):
        a = cerny(4)
        with pytest.raises(ValueError):
            getattr(a, method)(1, 2)
        with pytest.raises(ValueError):
            getattr(a, method)(1, -1)


@st.composite
def automaton_and_masks(draw):
    # state counts on both sides of byte and machine-word boundaries
    n = draw(st.sampled_from([1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 130]))
    # k=9 packs the letters' preimages into an int many machine words wide
    k = draw(st.sampled_from([1, 2, 3, 9]))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(0, full), max_size=8))
    return Automaton(rows), [0, full, *masks]


@given(automaton_and_masks(), st.booleans())
def test_preimage_kernel_matches_member_walk(case, inverse_first):
    # the oracle walks the states through delta alone, not through the
    # inverse table that the kernel's byte tables are built from
    a, masks = case
    if inverse_first:
        a.build_inverse()  # else the first preimage_bits call builds both
    for bits in masks:
        members = [q for q in range(a.n) if bits >> q & 1]
        expect = [
            sum(1 << q for q in brute_preimage(a, members, letter))
            for letter in range(a.k)
        ]
        assert a.preimage_bits(bits) == expect
        for letter in range(a.k):
            assert a.preimage(bits, letter) == expect[letter]


def test_packed_tables_store_each_union_once():
    # the k letters share one table per byte; a union of preimage masks is
    # one int however many entries read it, which keeps the tables below
    # the 5.69 MB that separate per-letter tables held at this size
    a = random_automaton(1000, 2, 0)
    a.build_inverse()
    tracemalloc.start()
    try:
        a.preimage_bits(0)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 5.69e6
    for t in a._pre_tables[0]:
        assert len({id(v) for v in t}) == len(set(t))


@pytest.mark.parametrize("count", [1, 7, 8, 13, 21])
def test_byte_tables_entries_are_the_or_of_their_bits(count):
    # masks with zeros, overlaps and a ragged last byte: entry b of table j
    # is the OR of masks[8j + i] over the bits i of b, a missing mask 0;
    # each subset of the nonzero masks is ORed once, so a union repeated
    # by a zero mask is one int, not one per copy
    rng = random.Random(count)
    masks = [rng.choice([0, 0, 1 << rng.randrange(40, 80), rng.getrandbits(80)])
             for _ in range(count)]
    tables = _byte_tables(masks)
    assert len(tables) == (count + 7) // 8
    for j, table in enumerate(tables):
        assert len(table) == 256
        byte = masks[8 * j : 8 * j + 8]
        assert len({id(v) for v in table}) == 2 ** sum(map(bool, byte))
        for b, entry in enumerate(table):
            want = 0
            for i, x in enumerate(byte):
                if b >> i & 1:
                    want |= x
            assert entry == want, (j, b)


def test_checked_preimage_builds_no_byte_tables():
    # a one-letter query ORs its members' inverse masks, so it leaves the
    # search's byte tables unbuilt; building them held 5.1 MB at this size
    a = random_automaton(1000, 2, 0)
    tracemalloc.start()
    try:
        a.preimage(1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a._pre_tables is None
    assert peak < 1e6


class TestSynchronizingWord:
    def test_known_shortest_word_verifies(self):
        a = cerny(4)
        res = exact_shortest(a)
        assert res.length == 9
        assert a.is_synchronizing_word(res.word)

    def test_empty_word(self):
        assert not cerny(4).is_synchronizing_word(())
        assert Automaton([[0]]).is_synchronizing_word(())

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            cerny(3).is_synchronizing_word((0, 2))

    def test_list_tuple_and_bytes_words_agree(self):
        # 522 letters, three 256-letter spans; without its last
        # letter the word leaves two states
        a = cerny(20)
        word = eppstein_greedy(a).word
        for w, expect in ((word, True), (word[:-1], False)):
            for form in (list, tuple, bytes):
                assert a.is_synchronizing_word(form(w)) is expect

    def test_long_word_checks_in_time(self, cerny300_greedy):
        # the word applies in composed 64- and 16-letter runs: letter by
        # letter on a bit mask it took about 2 s
        a = cerny(300)
        t0 = time.perf_counter()
        assert a.is_synchronizing_word(cerny300_greedy.word)
        assert time.perf_counter() - t0 < 1.0

    def test_runs_past_the_column_cache_cap(self):
        # more distinct runs than the cache keeps: the rest apply letter by
        # letter, with the same states as applying every letter in turn
        a = random_automaton(12, 2, 0)
        rng = random.Random(0)
        word = [rng.randrange(2) for _ in range(16 * 200 + 5)]
        blocks = {}
        got = _apply_word(a._cols, tuple(word), range(a.n), blocks)
        assert len(blocks) == _MAX_BLOCKS
        expect = list(range(a.n))
        for x in word:
            expect = [a.delta(q, x) for q in expect]
        assert got == expect
        assert a.is_synchronizing_word(word) == brute_synchronizes(a, word)

    def test_stops_once_one_state_is_left(self, monkeypatch):
        # cerny(4)'s reset word, then a 100 000-letter tail: the first span
        # leaves one state, so no later span is applied
        a = cerny(4)
        word = list(exact_shortest(a).word) + [0, 1] * 50_000
        spans = []

        def counted(*args):
            spans.append(len(args[1]))
            return _apply_word(*args)

        monkeypatch.setattr("synchro.automaton._apply_word", counted)
        assert a.is_synchronizing_word(word)
        assert spans == [256]
        # every letter is still checked, the tail's too
        spans.clear()
        with pytest.raises(ValueError):
            a.is_synchronizing_word(word[:-1] + [2])
        assert spans == []


def _letter_by_letter(a, word, states):
    for x in word:
        states = [a.delta(q, x) for q in states]
    return states


class _Spy(dict):
    """A column cache that records each lookup as (run length, hit)."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, run, default=None):
        self.asked.append((len(run), run in self))
        return super().get(run, default)


class _Counted(list):
    """A letter's column that counts the states it is applied to."""

    reads = 0

    def __getitem__(self, p):
        _Counted.reads += 1
        return super().__getitem__(p)


class TestApplyWord:
    def test_bytes_and_tuple_words_give_the_same_states_and_runs(self):
        # three long runs, a repeated short run and a ragged tail: each word
        # keys its runs by slices of itself, so a bytes word's keys are bytes
        a = random_automaton(12, 3, 0)
        rng = random.Random(0)
        short = [rng.randrange(3) for _ in range(_BLOCK)]
        letters = [rng.randrange(3) for _ in range(3 * _LONG)] + short * 2 + [2, 0, 1]
        got, keys = {}, {}
        for word in (bytes(letters), tuple(letters)):
            blocks = {}
            got[type(word)] = _apply_word(a._cols, word, range(a.n), blocks)
            assert all(type(run) is type(word) for run in blocks)
            keys[type(word)] = set(map(bytes, blocks))
        assert got[bytes] == got[tuple] == _letter_by_letter(a, letters, range(a.n))
        assert keys[bytes] == keys[tuple] and len(keys[bytes]) == 3 + 4 * 3 + 1

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 8), st.integers(0, 2**32))
    def test_runs_of_both_lengths_match_letter_by_letter(self, n, k, r, words, seed):
        # words of up to 1 200 letters: r random 16-letter runs picked at
        # random, then a ragged tail; long runs recur, and with r = 4 the up
        # to 4**4 distinct ones can fill the shared cache
        rng = random.Random(seed)
        a = random_automaton(n, k, seed)
        runs = [[rng.randrange(k) for _ in range(_BLOCK)] for _ in range(r)]
        blocks = {}
        for _ in range(words):
            length = rng.randrange(1201)
            word = [x for _ in range(length // _BLOCK) for x in rng.choice(runs)]
            word += [rng.randrange(k) for _ in range(length % _BLOCK)]
            states = [rng.randrange(n) for _ in range(rng.randrange(2 * n + 1))]
            got = _apply_word(a._cols, tuple(word), states, blocks)
            assert got == _letter_by_letter(a, word, states)
            assert len(blocks) <= _MAX_BLOCKS
        target(len(blocks))  # steer towards a full cache

    def test_a_long_run_past_the_full_cache_takes_its_short_runs(self):
        # 60 distinct long runs of four short runs fill the cache with 4 + 60
        # columns; then an uncached long run falls back to its cached short
        # runs, and the next long run still uses its own column
        a = random_automaton(12, 2, 0)
        rng = random.Random(0)
        short = []
        while len(short) < 4:
            run = tuple(rng.randrange(2) for _ in range(_BLOCK))
            if run not in short:
                short.append(run)
        long = [sum(quad, ()) for quad in itertools.product(short, repeat=4)]
        blocks = _Spy()
        fill = [x for run in long[:60] for x in run]
        _apply_word(a._cols, tuple(fill), range(a.n), blocks)
        assert len(blocks) == _MAX_BLOCKS
        assert sorted(map(len, blocks)) == [_BLOCK] * 4 + [_LONG] * 60
        keys = set(blocks)

        word = list(long[60] + long[0] + long[61] + short[1]) + [1, 0, 1]
        cols = tuple(_Counted(col) for col in a._cols)
        blocks.asked.clear()
        _Counted.reads = 0
        got = _apply_word(cols, tuple(word), range(a.n), blocks)
        assert got == _letter_by_letter(a, word, range(a.n))
        assert set(blocks) == keys
        fallback = [(_LONG, False)] + [(_BLOCK, True)] * 4
        assert blocks.asked == fallback + [(_LONG, True)] + fallback + [(_BLOCK, True)]
        assert _Counted.reads == 3 * a.n  # only the three letters of the tail


class TestCerny:
    def test_n4_table(self):
        a = cerny(4)
        assert [a.delta(q, 0) for q in range(4)] == [1, 2, 3, 0]
        assert [a.delta(q, 1) for q in range(4)] == [1, 1, 2, 3]

    def test_n2_shortest_is_b(self):
        a = cerny(2)
        assert a.is_synchronizing_word((1,))
        res = exact_shortest(a)
        assert (res.length, res.word) == (1, (1,))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cerny(1)

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_letter_structure(self, n):
        a = cerny(n)
        assert sorted(a.delta(q, 0) for q in range(n)) == list(range(n))
        assert sum(1 for q in range(n) if a.delta(q, 1) == q) == n - 1


class TestRandomAutomaton:
    def test_deterministic(self):
        assert random_automaton(20, 3, 99).rows == random_automaton(20, 3, 99).rows

    def test_single_state(self):
        a = random_automaton(1, 4, 123)
        assert all(a.delta(0, letter) == 0 for letter in range(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 255, 256, 257, 1000])
    def test_draws_are_randrange_row_by_row(self, n):
        # powers of two make randrange redraw about half the time
        for k in (1, 2, 3):
            for seed in (0, 1, 2):
                rng = random.Random(seed)
                expected = tuple(
                    tuple(rng.randrange(n) for _ in range(k)) for _ in range(n)
                )
                a = random_automaton(n, k, seed)
                assert a.rows == expected
                assert all(
                    a._cols[x][q] == a.rows[q][x] for q in range(n) for x in range(k)
                )

    def test_uniformity_chi_squared(self):
        # delta(0, 0) over 10,000 seeds, n=5: chi2 critical value for
        # df=4 at alpha=0.001 is 18.467
        n, trials = 5, 10_000
        counts = [0] * n
        for seed in range(trials):
            counts[random_automaton(n, 2, seed).delta(0, 0)] += 1
        expected = trials / n
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 18.467


class TestStartSet:
    def test_all_mode(self):
        assert start_set(cerny(4), "all") == [0, 1, 2, 3]

    def test_high_indegree_on_cerny(self):
        # only state 1 has in-degree 2 on some letter (letter b: 0 and 1)
        assert start_set(cerny(4), "high-indegree") == [1]

    def test_high_indegree_falls_back_on_permutation_letters(self):
        a = Automaton([(1, 2), (2, 0), (0, 1)])  # both letters permutations
        assert start_set(a, "high-indegree") == [0, 1, 2]

    def test_sink_mode_on_strongly_connected(self):
        assert start_set(cerny(5), "sink") == [0, 1, 2, 3, 4]

    def test_sink_mode_restricts(self):
        # states 0,1 feed into the sink {2,3} and are unreachable back
        a = Automaton([(2, 1), (3, 0), (3, 2), (2, 3)])
        assert start_set(a, "sink") == [2, 3]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            start_set(cerny(3), "bogus")

    # n = 1000: each sink set takes a few ms here, so 0.1 s leaves headroom
    @pytest.mark.parametrize(
        "rows, expected",
        [
            # a chain: every state reaches n-1, which only reaches itself
            ([[min(q + 1, 999), q] for q in range(1000)], [999]),
            # the reversed chain ends in 0
            ([[max(q - 1, 0), q] for q in range(1000)], [0]),
            # two sinks, 0 and 999, so no state is reached from all
            (
                [[max(q - 1, 0), q] for q in range(500)]
                + [[min(q + 1, 999), q] for q in range(500, 1000)],
                list(range(1000)),
            ),
            # strongly connected
            (cerny(1000).rows, list(range(1000))),
        ],
        ids=["chain", "reversed-chain", "two-sinks", "cerny"],
    )
    def test_sink_mode_at_scale(self, rows, expected):
        a = Automaton(rows)
        t0 = time.perf_counter()
        assert start_set(a, "sink") == expected
        assert time.perf_counter() - t0 < 0.1


class TestIndegreePermutation:
    def test_identity_when_sorted(self):
        # state 0 receives everything: in-degrees already non-increasing
        a = Automaton([(0, 0), (0, 0), (0, 1)])
        b, pi = indegree_permutation(a)
        assert pi == (0, 1, 2)
        assert b.rows == a.rows

    def test_cerny_heavy_state_first(self):
        _, pi = indegree_permutation(cerny(4))
        assert pi[1] == 0

    def test_isomorphism_property(self):
        a = random_automaton(30, 3, seed=11)
        b, pi = indegree_permutation(a)
        for q in range(a.n):
            for letter in range(a.k):
                assert b.delta(pi[q], letter) == pi[a.delta(q, letter)]
        indeg = [0] * b.n
        for row in b.rows:
            for p in row:
                indeg[p] += 1
        assert indeg == sorted(indeg, reverse=True)

    def test_word_transfers_to_original(self):
        checked = 0
        for seed in range(15):
            a = random_automaton(12, 2, seed)
            b, _ = indegree_permutation(a)
            try:
                res = eppstein_greedy(b)
            except NotSynchronizing:
                continue
            assert a.is_synchronizing_word(res.word)
            checked += 1
        assert checked >= 5


class TestTextFormat:
    def test_parse_example(self):
        a = parse_automaton("2 2\n1 0\n0 1\n")
        assert a.rows == ((1, 0), (0, 1))

    def test_round_trip_both_ways(self):
        a = cerny(10)
        text = serialize_automaton(a)
        assert parse_automaton(text) == a
        assert serialize_automaton(parse_automaton(text)) == text

    def test_trailing_newline_optional(self):
        assert parse_automaton("2 2\n1 0\n0 1") == parse_automaton("2 2\n1 0\n0 1\n")

    def test_out_of_range_state_reports_line(self):
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton("2 2\n3 0\n0 1\n")
        assert exc.value.line == 2
        assert "3" in str(exc.value)

    def test_malformed_header(self):
        for text in ("2\n0 0\n0 0\n", " \n", "0 2\n"):
            with pytest.raises(AutomatonFormatError) as exc:
                parse_automaton(text)
            assert exc.value.line == 1

    # int() reads each of these as 2, or as 0 and 1, so they used to parse
    @pytest.mark.parametrize("two", ["+2", "0_2", "\uff12", "\u0662"])
    def test_header_takes_ascii_digits_only(self, two):
        for header in (f"{two} 2", f"2 {two}"):
            with pytest.raises(AutomatonFormatError) as exc:
                parse_automaton(f"{header}\n1 0\n0 1\n")
            assert exc.value.line == 1

    @pytest.mark.parametrize("entry", ["-0", "+1", "0_1", "\uff11", "\u0661"])
    def test_rows_take_ascii_digits_only(self, entry):
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton(f"2 2\n1 0\n0 {entry}\n")
        assert exc.value.line == 3
        assert repr(entry) in str(exc.value)

    def test_number_past_the_int_digit_limit_reports_line(self):
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton("2 2\n1 " + "0" * 5000 + "\n0 1\n")
        assert exc.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton("3 1\n0\n1\n")
        assert exc.value.line == 4

    def test_wrong_row_width(self):
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton("2 2\n1 0 1\n0 1\n")
        assert exc.value.line == 2

    def test_extra_rows_rejected(self):
        with pytest.raises(AutomatonFormatError):
            parse_automaton("2 2\n1 0\n0 1\n1 1\n")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_end_as_in_text_mode(self, end):
        assert parse_automaton(end.join(["2 2", "1 0", "0 1", ""])).rows == (
            (1, 0), (0, 1)
        )
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton(end.join(["2 2", "1 0", "", "0 x", ""]))
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "space", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_other_line_breaks_are_in_row_whitespace(self, space):
        # str.splitlines breaks at each of these, an editor and text mode do not
        assert parse_automaton(f"2 2\n1{space}0\n0 1{space}\n").rows == (
            (1, 0), (0, 1)
        )
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton(f"2 2\n1 0{space}0 1\n")
        assert exc.value.line == 2
        assert "got 4" in str(exc.value)

    def test_form_feed_row_end_names_the_faulty_line(self):
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton("2 2\n1 0\x0c\n0 x\n")
        assert exc.value.line == 3
        assert "'x'" in str(exc.value)


# Faults for near-valid text: signs, underscores, other digits, an empty
# field and a number past the int digit limit.
_JUNK = st.sampled_from(["", "-0", "+1", "0_1", "\u0663", "\uff11", "\u00b2", "1e3",
                         "9" * 20, "9" * 4301])
_SPACES = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003", "\x0b", "\x0c"])
_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\u2028", ""])


@st.composite
def _near_valid_texts(draw):
    # an n-state, k-letter table with up to three fields made junk, and one
    # line perhaps dropped or doubled; an empty field or line end changes a
    # row's width, and "9" * 20 is a state out of range
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lines = [[str(n), str(k)],
             *([str(draw(st.integers(0, n - 1))) for _ in range(k)] for _ in range(n))]
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(0, len(line) - 1))] = draw(_JUNK)
    if draw(st.booleans()):
        i = draw(st.integers(0, n))
        lines[i : i + 1] = [lines[i]] * draw(st.integers(0, 2))
    return "".join(draw(_SPACES).join(fields) + draw(_ENDS) for fields in lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _near_valid_texts()))
def test_any_text_parses_or_names_a_line(text):
    try:
        a = parse_automaton(text)
    except AutomatonFormatError as exc:
        # lines as text mode reads them, ending at \n, \r\n or \r only;
        # a missing row is reported at the line it would take, one past the end
        assert 1 <= exc.line <= len(io.StringIO(text, newline=None).readlines()) + 1
    else:
        assert isinstance(a, Automaton)
        assert parse_automaton(serialize_automaton(a)) == a
