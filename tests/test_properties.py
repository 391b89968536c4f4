"""Properties of every algorithm on small random automata (n <= 8, k <= 3;
n <= 10 for the capped search, the start sets and the in-degree relabelling,
n <= 12 for Eppstein's word, the word check and the search's kernel calls,
n <= 14 and k <= 4 for the pair table's queue order and its pauses, n <= 30
and k <= 4 for Eppstein's word on four families), checked against the exact
oracle, the brute-force oracles and the automaton's own transition table."""

import random
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from synchro import (
    UNBOUNDED,
    Automaton,
    NotSynchronizing,
    cerny,
    cutoff_ibfs,
    eppstein_greedy,
    exact_shortest,
    indegree_permutation,
    parse_automaton,
    serialize_automaton,
    start_set,
    synchronize,
)
from synchro import baselines
from synchro.automaton import START_MODES
from synchro.baselines import PairTable
from synchro.bench import solve
from synchro.settrie import SetTrie
from conftest import (
    brute_capped_search,
    brute_indegree_relabel,
    brute_start_states,
    brute_synchronizes,
    eager_eppstein,
)

TAGS = (
    "eppstein",
    "exact",
    "cutoff-ibfs:1",
    "cutoff-ibfs:log",
    "cutoff-ibfs:n",
    "cutoff-ibfs:unbounded",
)

examples = settings(max_examples=100, deadline=None)


@st.composite
def automata(draw, max_n=8, max_k=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from(range(1, max_k + 1)))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    return Automaton(rows)


def _exact_length(a):
    try:
        return exact_shortest(a).length
    except NotSynchronizing:
        return None


@examples
@given(automata(), st.sampled_from(START_MODES), st.booleans())
def test_every_tag_gives_a_reset_word_of_its_length(a, mode, permute):
    shortest = _exact_length(a)
    for tag in TAGS:
        if shortest is None:
            with pytest.raises(NotSynchronizing):
                solve(a, tag, start_mode=mode, permute_by_indegree=permute)
            continue
        res = solve(a, tag, start_mode=mode, permute_by_indegree=permute)
        assert len(res.word) == res.length >= shortest
        assert a.is_synchronizing_word(res.word)


@examples
@given(automata())
def test_unbounded_cutoff_is_exact(a):
    shortest = _exact_length(a)
    if shortest is not None:
        assert solve(a, "cutoff-ibfs:unbounded").length == shortest


@examples
@given(automata(), st.sampled_from([1, 2, 3, UNBOUNDED]), st.sampled_from(START_MODES))
def test_synchronize_never_longer_than_eppstein(a, cap, mode):
    try:
        bound = eppstein_greedy(a).length
    except NotSynchronizing:
        return
    assert synchronize(a, cap, start_mode=mode).length <= bound


@examples
@given(
    automata(max_n=10),
    st.sampled_from([1, 2, 3, "n", UNBOUNDED]),
    st.sampled_from(START_MODES),
    st.booleans(),
    st.integers(0, 100),
)
def test_cutoff_search_matches_brute_capped_search(a, cap, mode, permute, maxlen):
    maxsize = a.n if cap == "n" else cap
    res = cutoff_ibfs(
        a, maxlen, maxsize, start_mode=mode, permute_by_indegree=permute
    )
    got = None if res is None else (
        res.length, res.word, res.frontier_sizes, res.level_probes, res.level_distinct
    )
    assert got == brute_capped_search(a, maxlen, maxsize, mode, permute)
    if res is not None:
        # the cut keeps at most the distinct sets, which are at most the
        # probes; every level but the goal's ends with a cut
        assert len(res.level_probes) == res.length
        assert len(res.level_distinct) == max(res.length - 1, 0)
        for level, count in enumerate(res.level_distinct):
            assert res.level_probes[level] >= count >= res.frontier_sizes[level + 1]


@examples
@given(automata(max_n=12), st.sampled_from([1, 3, UNBOUNDED]), st.integers(0, 60))
def test_carried_search_matches_brute_and_counts_its_kernel_calls(a, cap, maxlen):
    # the preimage carry changes no word, frontier, probe or distinct count,
    # and each level's ops are ceil(n/8) per kernel call it made plus its
    # dedup probes; every level but the goal's ends with a cut
    calls, marks = [], []
    pre, take = Automaton.preimage_bits, SetTrie.take_largest

    def counting(self, bits):
        calls.append(bits)
        return pre(self, bits)

    def marking(self, c):
        marks.append(len(calls))
        return take(self, c)

    with patch.object(Automaton, "preimage_bits", counting), \
            patch.object(SetTrie, "take_largest", marking):
        res = cutoff_ibfs(a, maxlen, cap)
    got = None if res is None else (
        res.length, res.word, res.frontier_sizes, res.level_probes, res.level_distinct
    )
    assert got == brute_capped_search(a, maxlen, cap)
    if res is not None and res.length:
        ends = [0, *marks, len(calls)]
        made = [end - begin for begin, end in zip(ends, ends[1:])]
        assert len(made) == res.length
        lookups = (a.n + 7) // 8
        assert res.level_ops == [
            lookups * count + probes for count, probes in zip(made, res.level_probes)
        ]


@examples
@given(automata(max_n=10), st.sampled_from(START_MODES))
def test_start_set_matches_brute_start_states(a, mode):
    assert start_set(a, mode) == brute_start_states(a, mode)


@examples
@given(automata(max_n=10))
def test_indegree_permutation_matches_brute_relabel(a):
    assert indegree_permutation(a)[0] == brute_indegree_relabel(a)


def _check_eppstein_against_eager_oracle(a, stride):
    """The greedy's word for ``a``, with every ``stride``-th pair of a chain
    remembered, is the eager oracle's, or both find ``a`` not
    synchronizing. Each merge word must shrink the member set, so a wrong
    word fails at once instead of being merged again without end."""

    def shrinking(cols, word, states, blocks):
        image = apply_word(cols, word, states, blocks)
        assert len(set(image)) < len(states), "a merge word merged no pair"
        return image

    apply_word = baselines._apply_word
    with (patch.object(baselines, "_TAIL_STRIDE", stride),
          patch.object(baselines, "_apply_word", shrinking)):
        try:
            expected = eager_eppstein(a)
        except NotSynchronizing:
            with pytest.raises(NotSynchronizing):
                eppstein_greedy(a)
            return
        assert eppstein_greedy(a).word == expected


# Strides 1 and 2 make the short chains of small automata join remembered
# ones part-way, which the default stride leaves to long chains.
@pytest.mark.parametrize("stride", [baselines._TAIL_STRIDE, 1, 2])
@examples
@given(automata(max_n=12))
def test_eppstein_word_matches_eager_oracle(stride, a):
    _check_eppstein_against_eager_oracle(a, stride)


@examples
@given(automata(max_n=14, max_k=4))
@example(cerny(3))
@example(cerny(5))
@example(cerny(12))
@example(cerny(30))
def test_pair_table_levels_follow_the_fifo_rule(a):
    # The greedy's look-ahead (_table_word) reads table letters off this
    # rule: each level is queued by (position of its labeller in the queue,
    # letter, state sent to the labeller's smaller state, the other state),
    # minimised over the letters that send the pair one level down.
    n = a.n
    table = PairTable(a)
    while table.grow(b"\1" * n):
        pass
    order = list(table.order)
    dists = [table.dist[j] for j in order]
    assert dists == sorted(dists)
    position = {j: i for i, j in enumerate(order)}
    for d in range(1, table.level + 1):
        level = [j for j in order if table.dist[j] == d]

        def key(j):
            u, v = divmod(j, n)
            keys = []
            for x, col in enumerate(a._cols):
                y, z = col[u], col[v]
                succ = y * n + z if y <= z else z * n + y
                if table.dist[succ] == d - 1:
                    keys.append((position[succ], x, u, v) if y <= z else
                                (position[succ], x, v, u))
            return min(keys)

        assert sorted(level, key=key) == level


@examples
@given(automata(max_n=14, max_k=4), st.integers(0, 2**32))
@example(cerny(5), 0)
@example(cerny(12), 1)
@example(cerny(30), 2)
def test_pair_table_pauses_and_resumes_cleanly(a, seed):
    # grow pauses at each level that holds a pair of flagged states and
    # resumes where its queue stopped, so its table is the one-call table
    n = a.n
    rng = random.Random(seed)
    table = PairTable(a)
    while table.grow(bytes(rng.randrange(2) for _ in range(n))):
        pass
    whole = PairTable(a)
    assert whole.grow(bytes(n)) == []
    for field in PairTable.__slots__:
        assert getattr(table, field) == getattr(whole, field)
    assert table.grow(b"\1" * n) == []
    assert table.level == whole.level


@st.composite
def greedy_automata(draw):
    """Automata of n <= 30 states and k <= 4 letters, from four families
    whose greedy merges come both from the pair table and from the look-ahead
    past it: uniform, few targets, permutations with one merging letter, and
    duplicated letters."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 4))
    family = draw(st.sampled_from(["uniform", "targets", "permutations", "duplicated"]))
    state = st.integers(0, n - 1)
    if family == "targets":
        state = st.sampled_from(draw(st.lists(state, min_size=1, max_size=3))) | state
    if family == "permutations":
        cols = [draw(st.permutations(range(n))) for _ in range(k)]
        # letter x sends p where it sends q, another state
        x = draw(st.integers(0, k - 1))
        p = draw(st.integers(0, n - 1))
        q = draw(st.integers(0, n - 2))
        cols[x][p] = cols[x][q + (q >= p)]
    else:
        cols = [draw(st.lists(state, min_size=n, max_size=n)) for _ in range(k)]
    if family == "duplicated":
        cols = [draw(st.sampled_from(cols[: draw(st.integers(1, k))])) for _ in range(k)]
    return Automaton(list(zip(*cols)))


@pytest.mark.parametrize("stride", [baselines._TAIL_STRIDE, 1, 2])
@examples
@given(greedy_automata())
def test_eppstein_word_matches_eager_oracle_on_families(stride, a):
    _check_eppstein_against_eager_oracle(a, stride)


@examples
@given(automata(max_n=12), st.data())
def test_word_check_matches_bit_walk(a, data):
    # a repeated pattern gives words of many 64- and 16-letter runs, some
    # recurring
    letters = st.integers(0, a.k - 1)
    word = data.draw(st.lists(letters, max_size=40)) * data.draw(st.integers(1, 30))
    assert a.is_synchronizing_word(word) == brute_synchronizes(a, word)


@examples
@given(automata())
def test_text_format_round_trip(a):
    assert parse_automaton(serialize_automaton(a)) == a


@examples
@given(automata(), st.integers(0, 12), st.sampled_from(TAGS))
def test_solve_respects_maxlen(a, maxlen, tag):
    try:
        res = solve(a, tag, maxlen=maxlen)
    except NotSynchronizing:
        return
    if res is not None:
        assert res.length <= maxlen
        assert a.is_synchronizing_word(res.word)
    if tag == "exact":
        assert (res is None) == (_exact_length(a) > maxlen)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_does_not_stop_the_session(tmp_path):
    # reporting a failing example imports hypothesis.extra._patching, which
    # imports libcst where it is installed; the suite's warning filters must
    # let that import through, so a failure ends one test, not the session
    (tmp_path / "test_inner.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), str(tmp_path / "test_inner.py")],
        cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
