import io

import pytest

import synchro.bench
from conftest import PARITY_TAGS
from synchro.automaton import START_MODES, Automaton, cerny, random_automaton
from synchro.baselines import eppstein_greedy, exact_shortest
from synchro.bench import (
    CSV_COLUMNS,
    NAMED_CAPS,
    ExperimentConfig,
    TrialRow,
    parse_algorithm,
    resolve_maxsize,
    run_experiment,
    solve,
    summarize,
    trial_seed,
    write_csv,
)
from synchro.cli import ALGO_HELP
from synchro.results import NotSynchronizing
from synchro.search import UNBOUNDED, log_cap, synchronize

TWO_CYCLES = Automaton([[1, 1], [0, 0], [3, 3], [2, 2]])  # not synchronizing
# small automata on which the cutoff search improves on Eppstein for some
# caps and falls back for others
SOLVE_AUTOMATA = [
    random_automaton(n, k, seed)
    for n, k, seed in ((4, 2, 0), (7, 2, 1), (9, 3, 2), (12, 2, 3), (12, 2, 8))
] + [cerny(5), TWO_CYCLES]


class TestAlgorithmTags:
    def test_valid_tags(self):
        assert parse_algorithm("eppstein") == ("eppstein", None)
        assert parse_algorithm("exact") == ("exact", None)
        assert parse_algorithm("cutoff-ibfs:log") == ("cutoff-ibfs", "log")
        assert parse_algorithm("cutoff-ibfs:17") == ("cutoff-ibfs", "17")

    @pytest.mark.parametrize(
        "tag",
        [
            "cycle",
            "cutoff-ibfs",
            "cutoff-ibfs:zero",
            "cutoff-ibfs:0",
            "eppstein:3",
            "cutoff-ibfs:²",
            "cutoff-ibfs:３",
            # one spelling per algorithm
            "eppstein:",
            "exact:",
            "cutoff-ibfs:07",
            "cutoff-ibfs:00",
        ],
    )
    def test_invalid_tags(self, tag):
        with pytest.raises(ValueError):
            parse_algorithm(tag)

    def test_resolve_maxsize(self):
        assert resolve_maxsize("log", 100) == 7
        assert resolve_maxsize("n", 100) == 100
        assert resolve_maxsize("unbounded", 100) is UNBOUNDED
        assert resolve_maxsize("12", 100) == 12

    @pytest.mark.parametrize("cap", NAMED_CAPS)
    def test_every_named_cap_is_a_tag_in_the_help(self, cap):
        assert parse_algorithm(f"cutoff-ibfs:{cap}") == ("cutoff-ibfs", cap)
        assert cap in ALGO_HELP.split("cutoff-ibfs:{")[1].rstrip("}").split("|")


def _outcome(call):
    try:
        return call().fingerprint()
    except NotSynchronizing:
        return "not synchronizing"


class TestSolve:
    @pytest.mark.parametrize(
        "tag, kwargs, direct",
        [
            ("eppstein", {}, eppstein_greedy),
            ("exact", {}, exact_shortest),
            ("cutoff-ibfs:log", {}, lambda a: synchronize(a, log_cap(a.n))),
            ("cutoff-ibfs:n", {}, lambda a: synchronize(a, a.n)),
            ("cutoff-ibfs:unbounded", {}, lambda a: synchronize(a, UNBOUNDED)),
            ("cutoff-ibfs:3", {}, lambda a: synchronize(a, 3)),
            (
                "cutoff-ibfs:3",
                {"start_mode": "high-indegree"},
                lambda a: synchronize(a, 3, start_mode="high-indegree"),
            ),
            (
                "cutoff-ibfs:2",
                {"permute_by_indegree": True},
                lambda a: synchronize(a, 2, permute_by_indegree=True),
            ),
        ],
        ids=[
            "eppstein",
            "exact",
            "log",
            "n",
            "unbounded",
            "3",
            "3-high-indegree",
            "2-permuted",
        ],
    )
    def test_matches_direct_call(self, tag, kwargs, direct):
        for a in SOLVE_AUTOMATA:
            got = _outcome(lambda: solve(a, tag, **kwargs))
            assert got == _outcome(lambda: direct(a))

    def test_maxlen_runs_the_search_alone(self):
        assert solve(cerny(4), "cutoff-ibfs:4", maxlen=8) is None
        assert solve(cerny(4), "cutoff-ibfs:4", maxlen=9).length == 9

    @pytest.mark.parametrize(
        "tag, length", [("eppstein", 10), ("exact", 9), ("cutoff-ibfs:4", 9)]
    )
    def test_word_longer_than_maxlen_is_none(self, tag, length):
        # the same rule for every algorithm: a longer word counts as not found
        assert solve(cerny(4), tag, maxlen=3) is None
        assert solve(cerny(4), tag, maxlen=length - 1) is None
        assert solve(cerny(4), tag, maxlen=length).length == length

    @pytest.mark.parametrize("tag", PARITY_TAGS)
    @pytest.mark.parametrize(
        "bad", [dict(maxlen=-1), dict(start_mode="bogus")], ids=["maxlen", "start-mode"]
    )
    def test_every_tag_checks_its_options_before_any_work(self, monkeypatch, tag, bad):
        # eppstein and exact read neither option, yet reject a bad one alike
        def no_work(*args, **kwargs):
            raise AssertionError("an algorithm ran before the options were checked")

        for name in ("eppstein_greedy", "exact_shortest", "synchronize", "cutoff_ibfs"):
            monkeypatch.setattr(synchro.bench, name, no_work)
        with pytest.raises(ValueError):
            solve(cerny(4), tag, **bad)

    @pytest.mark.parametrize("tag", ["eppstein", "exact", "cutoff-ibfs:n"])
    def test_not_synchronizing_propagates(self, tag):
        with pytest.raises(NotSynchronizing):
            solve(TWO_CYCLES, tag)


class TestExperiment:
    def test_row_accounting_and_shared_seeds(self):
        cfg = ExperimentConfig(
            ns=(4,), trials=2, seed=3, algorithms=("eppstein", "cutoff-ibfs:n")
        )
        rows = run_experiment(cfg)
        assert len(rows) == 4
        for trial in (0, 1):
            seeds = {r.seed for r in rows if r.trial == trial}
            assert len(seeds) == 1
            assert seeds == {trial_seed(3, 4, trial)}

    def test_csv_deterministic_except_time(self):
        cfg = ExperimentConfig(
            ns=(6,), trials=5, seed=1, algorithms=("eppstein", "cutoff-ibfs:log")
        )
        def strip_time(csv_text):
            lines = csv_text.splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            return [
                ",".join(f for i, f in enumerate(l.split(",")) if i != 6)
                for l in lines
            ]
        def csv_text(rows):
            buf = io.StringIO()
            write_csv(rows, buf)
            return buf.getvalue()
        a = strip_time(csv_text(run_experiment(cfg)))
        b = strip_time(csv_text(run_experiment(cfg)))
        assert a == b

    def test_csv_bytes(self):
        # the header and row layout of earlier versions, byte for byte
        rows = [
            TrialRow(8, 2, 1, 123, "cutoff-ibfs:n", 7, 0.0123456789, 5),
            TrialRow(8, 2, 2, 124, "eppstein", -1, 1.5, 0),
        ]
        buf = io.StringIO()
        write_csv(rows, buf)
        assert buf.getvalue() == (
            "n,k,trial,seed,algorithm,length,time_s,frontier_peak\n"
            "8,2,1,123,cutoff-ibfs:n,7,0.012346,5\n"
            "8,2,2,124,eppstein,-1,1.500000,0\n"
        )

    def test_summary_means_match_rows(self):
        cfg = ExperimentConfig(
            ns=(8,), trials=10, seed=7, algorithms=("eppstein", "exact")
        )
        rows = run_experiment(cfg)
        for line in summarize(rows):
            grp = [r for r in rows if r.n == line.n and r.algorithm == line.algorithm]
            sync = [r for r in grp if r.length >= 0]
            assert line.trials == len(grp)
            assert line.synchronizing == len(sync)
            if sync:
                assert line.mean_length == pytest.approx(
                    sum(r.length for r in sync) / len(sync)
                )
            assert line.mean_time_s == pytest.approx(
                sum(r.time_s for r in grp) / len(grp)
            )

    def test_exact_and_cutoff_agree_per_row(self):
        cfg = ExperimentConfig(
            ns=(6,), trials=20, seed=5,
            algorithms=("exact", "cutoff-ibfs:unbounded"),
        )
        rows = run_experiment(cfg)
        by_trial = {}
        for r in rows:
            by_trial.setdefault(r.trial, {})[r.algorithm] = r.length
        for lengths in by_trial.values():
            assert lengths["exact"] == lengths["cutoff-ibfs:unbounded"]

    def test_cutoff_time_includes_eppstein_on_average(self):
        cfg = ExperimentConfig(
            ns=(40,), trials=20, seed=2, algorithms=("eppstein", "cutoff-ibfs:n")
        )
        lines = {s.algorithm: s for s in summarize(run_experiment(cfg))}
        assert (
            lines["cutoff-ibfs:n"].mean_time_s >= lines["eppstein"].mean_time_s
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(), trials=1)
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(4,), trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(4,), k=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(4,), algorithms=("bogus",))

    @pytest.mark.parametrize("algorithms", [("eppstein",), ("cutoff-ibfs:n",)])
    def test_config_rejects_unknown_start_mode(self, algorithms):
        # checked up front, also where no algorithm would read the mode
        with pytest.raises(ValueError, match="start mode"):
            ExperimentConfig(ns=(6,), algorithms=algorithms, start_mode="bogus")
        for mode in START_MODES:
            ExperimentConfig(ns=(6,), algorithms=algorithms, start_mode=mode)

    def test_config_rejects_repeats(self):
        # a repeat would run the same seeds twice and count them twice
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(6, 6), trials=2)
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(6,), algorithms=("eppstein", "eppstein"))
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(6,), algorithms=("cutoff-ibfs:7", "cutoff-ibfs:07"))
