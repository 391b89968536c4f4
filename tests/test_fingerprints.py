"""Bit-identity pin: a refactor of the search is correct only if every
``SearchResult.fingerprint()`` (length, word, frontier sizes) stays the same.

``EXPECTED`` was computed on the code before the set-trie was rebuilt as a
bitmask dict, so any change to words, frontier order or frontier sizes on
this instance set shows up here as a digest mismatch.
"""

import hashlib

from synchro import NotSynchronizing, cerny, log_cap, random_automaton, synchronize

EXPECTED = "7b0e56dab2a9f9a8a76b743d976fccb483f384fc0d8e2107c38beaa37b141414"


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


def test_fingerprint_digest_is_unchanged():
    digest = hashlib.sha256("\n".join(fingerprints()).encode()).hexdigest()
    assert digest == EXPECTED
