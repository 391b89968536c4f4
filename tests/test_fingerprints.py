"""Bit-identity pin: a refactor of the search is correct only if every
``SearchResult.fingerprint()`` (length, word, frontier sizes) stays the same.

``EXPECTED`` was computed on the code before the set-trie was rebuilt as a
bitmask dict, so any change to words, frontier order or frontier sizes on
this instance set shows up here as a digest mismatch. ``EXPECTED_SOLVE``
pins the paths `synchronize` does not take: the standalone `cutoff_ibfs`
with a ``maxlen`` in every start mode, cap and permutation setting, and
`solve` with the ``eppstein`` and ``exact`` tags. It was computed on the
code that still built a ``FrontierRecord`` chain for every returned word.
``EXPECTED_EPPSTEIN`` pins `eppstein_greedy`'s words on automata larger
than the ones above, where `synchronize` seldom returns them; it was
computed on the code that built the whole pair table before merging.
"""

import hashlib
import tracemalloc
from itertools import product

from hypothesis import example, given, strategies as st

from synchro import (
    UNBOUNDED,
    Automaton,
    NotSynchronizing,
    cerny,
    cutoff_ibfs,
    eppstein_greedy,
    log_cap,
    random_automaton,
    synchronize,
)
from synchro.automaton import START_MODES
from synchro.bench import solve
from synchro.results import _render_word

EXPECTED = "7b0e56dab2a9f9a8a76b743d976fccb483f384fc0d8e2107c38beaa37b141414"
EXPECTED_SOLVE = "a516aeb24cc913842ea6e3110bc3e423517998ade429b73e9d9f1ea01dfdd30c"
EXPECTED_EPPSTEIN = "5250f445071e815e381e53ae08690b273a6b923b77e2eb6969f7a6c643d39038"


def _fingerprint(a, cap, **kwargs):
    try:
        return synchronize(a, cap, **kwargs).fingerprint()
    except NotSynchronizing:
        return "not-synchronizing"


def fingerprints():
    out = []
    for seed in range(12):
        a = random_automaton(100, 2, seed)
        out.append(_fingerprint(a, a.n))
        out.append(_fingerprint(a, log_cap(a.n)))
    for n in range(2, 13):
        out.append(_fingerprint(cerny(n), n))
    for seed in range(12):
        a = random_automaton(30, 2, seed)
        out.append(
            _fingerprint(
                a, log_cap(a.n), start_mode="high-indegree", permute_by_indegree=True
            )
        )
    return out


def _outcome(call):
    try:
        res = call()
    except NotSynchronizing:
        return "not-synchronizing"
    return "none" if res is None else res.fingerprint()


def solve_fingerprints():
    automata = [random_automaton(n, k, seed) for n, k, seed in (
        (6, 2, 0), (9, 2, 1), (10, 3, 2), (12, 2, 3), (12, 2, 8), (20, 2, 5)
    )] + [cerny(6), Automaton([[1, 1], [0, 0], [3, 3], [2, 2]])]
    out = []
    for a in automata:
        for tag in ("eppstein", "exact"):
            out.append(_outcome(lambda: solve(a, tag)))
            out.append(_outcome(lambda: solve(a, tag, maxlen=10**6)))
        settings = product(
            (3, 2 * a.n), START_MODES, (1, log_cap(a.n), UNBOUNDED), (False, True)
        )
        for maxlen, mode, cap, permute in settings:
            opts = dict(start_mode=mode, permute_by_indegree=permute)
            out.append(_outcome(lambda: cutoff_ibfs(a, maxlen, cap, **opts)))
    return out


def eppstein_fingerprints():
    automata = [
        random_automaton(n, k, seed)
        for n in (50, 100, 300)
        for k in (2, 3)
        for seed in range(4)
    ] + [cerny(n) for n in range(2, 41)]
    return [_outcome(lambda: eppstein_greedy(a)) for a in automata]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_fingerprint_digest_is_unchanged():
    assert _digest(fingerprints()) == EXPECTED


def test_solve_and_standalone_search_digest_is_unchanged():
    assert _digest(solve_fingerprints()) == EXPECTED_SOLVE


def test_eppstein_digest_is_unchanged():
    assert _digest(eppstein_fingerprints()) == EXPECTED_EPPSTEIN


@given(st.lists(st.integers(-1000, 1000)), st.sampled_from([",", " "]))
@example([], ",")
@example(list(range(1001)), " ")
@example([-1, 0, -10, 10, -1], ",")
def test_rendered_word_is_the_letters_joined(word, sep):
    assert _render_word(word, sep) == sep.join(map(str, word))
    assert _render_word(tuple(word), sep) == sep.join(map(str, word))


def test_long_word_fingerprint_heap_peak(cerny300_greedy):
    # one str per distinct letter: with one per letter the peak was ~16 MB
    res = cerny300_greedy
    tracemalloc.start()
    try:
        fingerprint = res.fingerprint()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    word = ",".join(map(str, res.word))
    assert fingerprint == f"algorithm=eppstein;length=267662;word={word};frontier_sizes="
