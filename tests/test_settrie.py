import random

import pytest
from hypothesis import assume, given, strategies as st

from synchro import cerny, cutoff_ibfs
from synchro.settrie import SetTrie


def mask(members):
    return sum(1 << q for q in set(members))


def members_of(n, bits):
    return tuple(q for q in range(n) if bits >> q & 1)


def oracle_order(sets):
    """Larger sets first; equal sizes larger mask first, that is, larger
    members compared from the top down."""
    return sorted(sets, key=lambda m: (len(m), sorted(m, reverse=True)), reverse=True)


# The search's cut order on the user's numbering: equal sizes ranked by the
# mask with its bits reversed byte by byte, larger first, which puts the
# lexicographically smaller member list first.
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def old_order(n, masks):
    nbytes = (n + 7) // 8

    def key(bits):
        chunks = bits.to_bytes(nbytes, "little").translate(_REVERSED_BYTE)
        return bits.bit_count(), int.from_bytes(chunks, "big")

    return sorted(masks, key=key, reverse=True)


def mirrored(n, bits):
    return sum(1 << (n - 1 - q) for q in range(n) if bits >> q & 1)


def test_from_masks_keeps_the_first_occurrence():
    t = SetTrie.from_masks([mask([1, 3]), mask([1, 3])])
    assert len(t) == 1
    # a duplicate keeps the index met first
    assert t == {mask([1, 3]): 0}
    assert t.take_largest(1) == [mask([1, 3])]


def test_different_cardinalities_are_distinct():
    t = SetTrie.from_masks([mask([1, 3]), mask([1, 3, 5])])
    assert len(t) == 2


def test_from_masks_drops_empty_sets():
    # an empty preimage keeps its place in the list, so the indices of the
    # sets after it still read parent * k + letter
    assert SetTrie.from_masks([0, mask([2]), 0]) == {mask([2]): 1}
    assert SetTrie.from_masks([0, 0]) == {}
    assert SetTrie.from_masks([]) == {}


def test_take_largest_order():
    t = SetTrie.from_masks([mask(members) for members in ([1], [2, 3], [0, 1, 2])])
    assert [members_of(6, b) for b in t.take_largest(2)] == [(0, 1, 2), (2, 3)]
    with pytest.raises(ValueError):
        t.take_largest(0)


def test_take_largest_fewer_than_requested_and_tie_order():
    t = SetTrie.from_masks([mask([2]), mask([1])])
    assert [members_of(6, b) for b in t.take_largest(5)] == [(2,), (1,)]


def test_take_largest_one_returns_a_maximum():
    rng = random.Random(0)
    sets = [rng.sample(range(10), rng.randint(1, 10)) for _ in range(50)]
    t = SetTrie.from_masks([mask(s) for s in sets])
    (top,) = t.take_largest(1)
    assert top.bit_count() == max(len(s) for s in sets)


def test_dedup_matches_python_set_oracle():
    rng = random.Random(7)
    drawn = [tuple(sorted(rng.sample(range(12), rng.randint(1, 12)))) for _ in range(500)]
    t = SetTrie.from_masks([mask(members) for members in drawn])
    seen = set(drawn)
    assert len(t) == len(seen)
    stored = [members_of(12, b) for b in t.take_largest(len(t))]
    assert set(stored) == seen
    # non-increasing cardinality, larger mask first within equal cardinality
    assert stored == oracle_order(seen)
    assert len(stored) == len(set(stored))
    assert all(t[mask(members)] == drawn.index(members) for members in seen)


def test_take_largest_matches_counting_sort_oracle():
    rng = random.Random(42)
    drawn = [tuple(sorted(rng.sample(range(9), rng.randint(1, 9)))) for _ in range(200)]
    t = SetTrie.from_masks([mask(members) for members in drawn])
    expect = oracle_order(set(drawn))
    for c in (1, 3, 17, len(expect) + 5):
        got = [members_of(9, b) for b in t.take_largest(c)]
        assert got == expect[:c]


@st.composite
def stored_masks(draw):
    # state counts on both sides of byte and machine-word boundaries
    n = draw(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 100, 130]))
    # uniform masks, plus small sets so that equal sizes tie often
    one_mask = st.integers(1, (1 << n) - 1) | st.sets(
        st.integers(0, n - 1), min_size=1, max_size=3
    ).map(mask)
    masks = draw(st.lists(one_mask, min_size=1, max_size=40))
    return n, masks


@given(stored_masks(), st.integers(1, 45))
def test_take_largest_order_property(stored, c):
    n, masks = stored
    t = SetTrie.from_masks(masks)
    first = {}
    for i, bits in enumerate(masks):
        first.setdefault(bits, i)
    assert t == first
    got = t.take_largest(c)
    expect = oracle_order({members_of(n, b) for b in first})[:c]
    assert [members_of(n, b) for b in got] == expect
    assert t.take_largest(c + 1)[: len(got)] == got


def test_take_largest_breaks_ties_at_the_cut():
    # 2 sets of 3 members, then all 10 pairs of 5 states: a cut at 5 takes
    # the two triples and the three pairs with the largest masks
    rng = random.Random(5)
    pairs = [(p, q) for p in range(5) for q in range(p + 1, 5)]
    rng.shuffle(pairs)
    t = SetTrie.from_masks([mask(members) for members in [[0, 1, 2], [2, 3, 4], *pairs]])
    got = [members_of(5, b) for b in t.take_largest(5)]
    assert got == [(2, 3, 4), (0, 1, 2), (3, 4), (2, 4), (1, 4)]
    for c in range(1, len(t) + 1):
        got = [members_of(5, b) for b in t.take_largest(c)]
        assert got == oracle_order([(0, 1, 2), (2, 3, 4)] + pairs)[:c]


@given(stored_masks(), st.data())
def test_take_largest_cut_property(stored, data):
    # c below the number of distinct sets, so the cut drops some of them
    n, masks = stored
    t = SetTrie.from_masks(masks)
    distinct = {members_of(n, b) for b in masks}
    assume(len(distinct) >= 2)
    c = data.draw(st.integers(1, len(distinct) - 1))
    got = t.take_largest(c)
    assert [members_of(n, b) for b in got] == oracle_order(distinct)[:c]
    assert all(t[b] == masks.index(b) for b in got)


@given(st.integers(1, 70), st.data())
def test_mirrored_masks_rank_in_the_old_order(n, data):
    # ranking the mirrored masks by (size, mask) is the old bit-reversed
    # order of the original masks, for n on and off byte boundaries
    one_mask = st.integers(1, (1 << n) - 1) | st.sets(
        st.integers(0, n - 1), min_size=1, max_size=3
    ).map(mask)
    masks = data.draw(st.lists(one_mask, min_size=1, max_size=40, unique=True))
    t = SetTrie.from_masks([mirrored(n, bits) for bits in masks])
    c = data.draw(st.integers(1, len(masks)))
    got = [masks[t[b]] for b in t.take_largest(c)]
    assert got == old_order(n, masks)[:c]


def test_cerny_level_inserts_stay_within_n_sets():
    # early levels of the inverse search on the Cerny automaton hold at most
    # n distinct sets, so the cap never bites there
    n = 10
    res = cutoff_ibfs(cerny(n), (n - 1) ** 2 + 1, n)
    assert res is not None
    assert all(size <= n for size in res.frontier_sizes[: n + 1])
