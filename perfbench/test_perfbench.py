"""Self-tests of the benchmark, on its tiny smoke instances.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def synchro():
    return run.load_synchro()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    plain, info = run.run_workload(name, seed=3, seconds=0.05, trace=False, smoke=True)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert emitted(plain) == units("end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert info["failed_frac"] == 0
    assert "solve_s.p90" in info and len(info["digest"]) == 64

    traced, tinfo = run.run_workload(name, seed=3, seconds=0.05, trace=True, smoke=True)
    assert traced["correct"]
    assert emitted(traced) == units("per_layer")
    assert tinfo["missing_hooks"] == []


def test_quality_and_digest_repeat_on_one_seed():
    first = run.run_workload("random-wide", 5, 0.05, trace=False, smoke=True)
    again = run.run_workload("random-wide", 5, 0.05, trace=False, smoke=True)
    other = run.run_workload("random-wide", 6, 0.05, trace=False, smoke=True)
    length = [r["metrics"]["mean_length"]["value"] for r, _ in (first, again)]
    assert length[0] == length[1]
    assert first[1]["digest"] == again[1]["digest"] != other[1]["digest"]


def test_not_synchronizing_is_counted_apart_not_failed(synchro):
    # smoke random-wide seed 15 holds two non-synchronizing automata
    w = run.workload("random-wide", smoke=True)
    lengths = []
    for a in run.build_inputs(w, 15, synchro):
        try:
            lengths.append(synchro.synchronize(a, a.n).length)
        except synchro.NotSynchronizing:
            pass
    assert len(lengths) == w.batch - 2
    for trace in (False, True):
        result, info = run.run_workload("random-wide", 15, 0.05, trace, smoke=True)
        assert result["correct"] and info["failed_frac"] == 0
        assert info["not_synchronizing"] >= 2
    assert result["metrics"]["search.improved_frac"]["value"] > 0
    plain, _ = run.run_workload("random-wide", 15, 0.05, trace=False, smoke=True)
    assert plain["metrics"]["mean_length"]["value"] == sum(lengths) / len(lengths)


def test_spans_nest_and_self_time_is_not_negative(synchro):
    w = run.workload("random-large", smoke=True)
    tracer = run.Tracer()
    tracer.install(synchro)
    tally = run.Tally()
    call = run.solver(w, synchro)
    try:
        for i, template in enumerate(run.build_inputs(w, 1, synchro)):
            run.solve_once(w, synchro, call, template, i, True, tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    by_id = {sp.id: sp for sp in tracer.spans}
    names = {sp.name for sp in tracer.spans}
    assert {"solve", "automaton.inverse", "baselines.eppstein",
            "baselines.pair_table", "search.cutoff_ibfs"} <= names
    kids = tracer.children()
    for sp in tracer.spans:
        if sp.parent is not None:
            parent = by_id[sp.parent]
            assert parent.start <= sp.start <= sp.end <= parent.end
        assert tracer.self_time(sp, kids) >= 0
    # hooks are gone after uninstall
    assert synchro.search.SetTrie is synchro.settrie.SetTrie


def shortened(res):
    res.word = res.word[:-1]
    res.length -= 1
    return res


@pytest.mark.parametrize("stub", [shortened, lambda res: None])
def test_wrong_result_counts_as_failed(synchro, monkeypatch, stub):
    real = synchro.search.synchronize
    monkeypatch.setattr(
        synchro.search, "synchronize", lambda *args, **kw: stub(real(*args, **kw))
    )
    result, info = run.run_workload("cerny-deep", 0, 0.05, trace=False, smoke=True)
    assert not result["correct"]
    assert info["failed_frac"] > 0 and result["failed"] > 0


def test_missing_hook_target_is_absent_not_zero(synchro, monkeypatch):
    monkeypatch.delattr(synchro.automaton.Automaton, "build_inverse")
    result, info = run.run_workload("cerny-greedy", 0, 0.05, trace=True, smoke=True)
    assert result["correct"]
    assert "automaton.inverse_s" not in result["metrics"]
    assert "baselines.eppstein_s" in result["metrics"]
    assert info["missing_hooks"] == ["synchro.automaton.Automaton.build_inverse"]


def test_bare_directory_exits_nonzero_without_result():
    bare = run.OUT / "bare-directory-test"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "random-wide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
