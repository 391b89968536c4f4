"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavier criteria share
instance pools through session fixtures.
"""

import time
from itertools import count, product

import pytest

from synchro import (
    UNBOUNDED,
    cerny,
    cutoff_ibfs,
    eppstein_greedy,
    exact_shortest,
    log_cap,
    random_automaton,
    synchronize,
)
from synchro.bench import ExperimentConfig, run_experiment, summarize
from synchro.results import NotSynchronizing


def _ok(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


@pytest.fixture(scope="session")
def small_pool():
    """>= 500 synchronizing random automata with n in 4..8, k in {2, 3},
    with their exact shortest reset lengths."""
    pool = []
    for n, k in product(range(4, 9), (2, 3)):
        found = 0
        for seed in count():
            a = random_automaton(n, k, seed)
            try:
                res = exact_shortest(a)
            except NotSynchronizing:
                continue
            assert a.is_synchronizing_word(res.word)
            pool.append((a, res.length))
            found += 1
            if found == 50:
                break
    assert len(pool) >= 500
    return pool


@pytest.fixture(scope="session")
def n50_pool():
    return [random_automaton(50, 2, seed) for seed in range(200)]


def test_criterion_1_cerny_exactness():
    t0 = time.perf_counter()
    for n in range(2, 31):
        a = cerny(n)
        res = synchronize(a, n)
        assert res.length == (n - 1) ** 2, (n, res.length)
        assert len(res.word) == res.length
        assert a.is_synchronizing_word(res.word)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok("criterion 1 (Cerny exactness n=2..30)", f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(small_pool):
    t0 = time.perf_counter()
    for a, exact_len in small_pool:
        res = cutoff_ibfs(a, 2**a.n, UNBOUNDED)
        assert res is not None
        assert res.length == exact_len
        assert a.is_synchronizing_word(res.word)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(
        "criterion 2 (no-cutoff search = exact oracle)",
        f"{len(small_pool)} instances, {elapsed:.2f}s",
    )


def test_criterion_3_fallback_dominance(small_pool, n50_pool):
    automata = (
        [cerny(n) for n in range(2, 31)]
        + [a for a, _ in small_pool]
        + n50_pool
    )
    checked = 0
    for a in automata:
        try:
            epp = eppstein_greedy(a)
        except NotSynchronizing:
            with pytest.raises(NotSynchronizing):
                synchronize(a, a.n)
            continue
        res = synchronize(a, a.n)
        assert res.length <= epp.length
        assert a.is_synchronizing_word(res.word)
        assert a.is_synchronizing_word(epp.word)
        checked += 1
    _ok("criterion 3 (fallback dominance)", f"{checked} automata")


def test_criterion_4_quality_ordering():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        ns=(100,),
        k=2,
        trials=200,
        seed=2024,
        algorithms=("eppstein", "cutoff-ibfs:log", "cutoff-ibfs:n"),
    )
    lines = {s.algorithm: s for s in summarize(run_experiment(cfg))}
    epp = lines["eppstein"].mean_length
    cap_n = lines["cutoff-ibfs:n"].mean_length
    cap_log = lines["cutoff-ibfs:log"].mean_length
    assert cap_n is not None and epp is not None and cap_log is not None
    assert cap_n < epp
    assert cap_log <= epp
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(
        "criterion 4 (mean-length ordering, n=100 x 200 trials)",
        f"c=n {cap_n:.2f} < eppstein {epp:.2f}, c=log {cap_log:.2f} <= eppstein; "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_frontier_cap_and_determinism(n50_pool):
    runs = [(cerny(10), 10), (cerny(17), 17)] + [
        (a, cap) for a in n50_pool[:40] for cap in (1, 4, 50)
    ]
    for a, cap in runs:
        try:
            r1 = synchronize(a, cap)
            r2 = synchronize(a, cap)
        except NotSynchronizing:
            continue
        for r in (r1, r2):
            assert all(size <= cap for size in r.frontier_sizes[1:])
        assert r1.fingerprint().encode() == r2.fingerprint().encode()
    _ok("criterion 5 (frontier cap + determinism)", f"{len(runs)} run pairs")


def test_criterion_6_improvement_safety(n50_pool):
    checked = 0
    for a in n50_pool:
        try:
            epp = eppstein_greedy(a)
        except NotSynchronizing:
            continue
        restricted = synchronize(a, 8, start_mode="high-indegree")
        permuted = synchronize(a, 8, permute_by_indegree=True)
        for res in (restricted, permuted):
            assert a.is_synchronizing_word(res.word)
            assert res.length <= epp.length
        checked += 1
    _ok("criterion 6 (improvement safety)", f"{checked} automata")


def test_criterion_7_complexity_smoke():
    t0 = time.perf_counter()
    a = random_automaton(1000, 2, 42)
    res = synchronize(a, log_cap(1000))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert a.is_synchronizing_word(res.word)

    # instrumented set-operation counts per level, linear in the cap c
    b = random_automaton(256, 2, 2024)
    bound = eppstein_greedy(b).length
    rate = {}
    for c in (8, 16, 32, 64):
        r = cutoff_ibfs(b, bound - 1, c)
        assert r is not None
        # level 1 expands every start singleton whatever c is, so measure
        # from level 2 on
        ops = r.level_ops[1:]
        assert ops
        rate[c] = sum(ops) / len(ops) / c
    base = rate[8]
    for c, value in rate.items():
        assert 0.5 <= value / base <= 2.0, (c, value / base)
    _ok(
        "criterion 7 (complexity smoke)",
        f"n=1000 synchronize in {elapsed:.1f}s; ops/level/c ratios "
        + ", ".join(f"c={c}:{value / base:.2f}" for c, value in rate.items()),
    )
