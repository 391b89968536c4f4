import random

import pytest
from hypothesis import assume, given, strategies as st

from synchro import SetTrie, cerny, cutoff_ibfs, SearchParams


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


def test_insert_then_duplicate():
    t = SetTrie(8)
    assert t.insert(mask([1, 3]), "first")
    assert not t.insert(mask([1, 3]), "second")
    assert len(t) == 1
    # duplicate keeps the first payload
    assert t.take_largest(1) == [(mask([1, 3]), "first")]


def test_different_cardinalities_are_distinct():
    t = SetTrie(8)
    assert t.insert(mask([1, 3]))
    assert t.insert(mask([1, 3, 5]))
    assert len(t) == 2


def test_empty_set_rejected():
    t = SetTrie(4)
    with pytest.raises(ValueError):
        t.insert(0)


@pytest.mark.parametrize(
    "bits",
    [1 << 4, (1 << 4) | 1, 1 << 70, -1],
    ids=["bit-n", "bit-n-and-0", "bit-70", "negative"],
)
def test_mask_outside_universe_rejected(bits):
    t = SetTrie(4)
    with pytest.raises(ValueError):
        t.insert(bits)
    assert len(t) == 0


def test_take_largest_order():
    t = SetTrie(6)
    for members in ([1], [2, 3], [0, 1, 2]):
        t.insert(mask(members))
    assert [members_of(6, b) for b, _ in t.take_largest(2)] == [(0, 1, 2), (2, 3)]


def test_take_largest_fewer_than_requested_and_tie_order():
    t = SetTrie(6)
    t.insert(mask([2]))
    t.insert(mask([1]))
    assert [members_of(6, b) for b, _ in t.take_largest(5)] == [(2,), (1,)]


def test_take_largest_one_returns_a_maximum():
    t = SetTrie(10)
    rng = random.Random(0)
    sets = [rng.sample(range(10), rng.randint(1, 10)) for _ in range(50)]
    for s in sets:
        t.insert(mask(s))
    top, _ = t.take_largest(1)[0]
    assert top.bit_count() == max(len(s) for s in sets)


def test_dedup_matches_python_set_oracle():
    rng = random.Random(7)
    t = SetTrie(12)
    seen = set()
    for _ in range(500):
        members = tuple(sorted(rng.sample(range(12), rng.randint(1, 12))))
        t.insert(mask(members))
        seen.add(members)
    assert len(t) == len(seen)
    stored = [members_of(12, b) for b, _ in t.take_largest(len(t))]
    assert set(stored) == seen
    # non-increasing cardinality, larger mask first within equal cardinality
    assert stored == oracle_order(seen)
    assert len(stored) == len(set(stored))


def test_take_largest_matches_counting_sort_oracle():
    rng = random.Random(42)
    t = SetTrie(9)
    seen = set()
    for _ in range(200):
        members = tuple(sorted(rng.sample(range(9), rng.randint(1, 9))))
        t.insert(mask(members))
        seen.add(members)
    expect = oracle_order(seen)
    for c in (1, 3, 17, len(seen) + 5):
        got = [members_of(9, b) for b, _ in t.take_largest(c)]
        assert got == expect[:c]


def test_insertion_cost_linear_in_n():
    # one probe per insert, duplicates included, so well within n per insert
    n = 40
    rng = random.Random(3)
    t = SetTrie(n)
    inserts = 300
    for _ in range(inserts):
        t.insert(mask(rng.sample(range(n), rng.randint(1, n))))
    assert t.ops == inserts <= inserts * n


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
    t = SetTrie(n)
    first = {}
    for i, bits in enumerate(masks):
        assert t.insert(bits, i) == (bits not in first)
        first.setdefault(bits, i)
    got = t.take_largest(c)
    expect = oracle_order({members_of(n, b) for b in first})[:c]
    assert [members_of(n, b) for b, _ in got] == expect
    assert all(payload == first[b] for b, payload in got)
    assert t.take_largest(c + 1)[: len(got)] == got


def test_take_largest_breaks_ties_at_the_cut():
    # 2 sets of 3 members, then all 10 pairs of 5 states: a cut at 5 takes
    # the two triples and the three pairs with the largest masks
    t = SetTrie(5)
    for members in ([0, 1, 2], [2, 3, 4]):
        t.insert(mask(members))
    rng = random.Random(5)
    pairs = [(p, q) for p in range(5) for q in range(p + 1, 5)]
    rng.shuffle(pairs)
    for pair in pairs:
        t.insert(mask(pair))
    got = [members_of(5, b) for b, _ in t.take_largest(5)]
    assert got == [(2, 3, 4), (0, 1, 2), (3, 4), (2, 4), (1, 4)]
    for c in range(1, len(t) + 1):
        got = [members_of(5, b) for b, _ in t.take_largest(c)]
        assert got == oracle_order([(0, 1, 2), (2, 3, 4)] + pairs)[:c]


@given(stored_masks(), st.data())
def test_take_largest_cut_property(stored, data):
    # c below the number of distinct sets, so the cut drops some of them
    n, masks = stored
    t = SetTrie(n)
    for i, bits in enumerate(masks):
        t.insert(bits, i)
    distinct = {members_of(n, b) for b in masks}
    assume(len(distinct) >= 2)
    c = data.draw(st.integers(1, len(distinct) - 1))
    got = t.take_largest(c)
    assert [members_of(n, b) for b, _ in got] == oracle_order(distinct)[:c]
    assert all(payload == masks.index(b) for b, payload in got)


@given(st.integers(1, 70), st.data())
def test_mirrored_masks_rank_in_the_old_order(n, data):
    # ranking the mirrored masks by (size, mask) is the old bit-reversed
    # order of the original masks, for n on and off byte boundaries
    one_mask = st.integers(1, (1 << n) - 1) | st.sets(
        st.integers(0, n - 1), min_size=1, max_size=3
    ).map(mask)
    masks = data.draw(st.lists(one_mask, min_size=1, max_size=40, unique=True))
    t = SetTrie(n)
    for bits in masks:
        t.insert(mirrored(n, bits), bits)
    c = data.draw(st.integers(1, len(masks)))
    assert [payload for _, payload in t.take_largest(c)] == old_order(n, masks)[:c]


def test_cerny_level_inserts_stay_within_n_sets():
    # early levels of the inverse search on the Cerny automaton hold at most
    # n distinct sets, so the cap never bites there
    n = 10
    res = cutoff_ibfs(cerny(n), SearchParams(maxlen=(n - 1) ** 2 + 1, maxsize=n))
    assert res is not None
    assert all(size <= n for size in res.frontier_sizes[: n + 1])
