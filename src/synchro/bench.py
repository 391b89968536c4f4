"""Algorithm tags, the one algorithm dispatch (`solve`), and the benchmark
harness: the same random automata across a matrix of algorithms.

`synchro run` and `synchro bench` both run algorithms through `solve`, so
they share one tag grammar. Every (n, trial) pair gets one automaton,
generated from a seed derived deterministically from the experiment seed,
and every configured algorithm runs on that same automaton. ``time_s`` is
the wall time around the `solve` call, so cutoff-search timings include the
preceding Eppstein run. Non-synchronizing samples are recorded with length
-1 and excluded from mean-length summaries.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from typing import Optional, TextIO

from .automaton import START_MODES, Automaton, random_automaton
from .baselines import EXACT_MAX_STATES, eppstein_greedy, exact_shortest
from .results import NotSynchronizing, SearchResult
from .search import UNBOUNDED, cutoff_ibfs, log_cap, synchronize

KNOWN_ALGORITHMS = ("eppstein", "exact", "cutoff-ibfs")


def parse_algorithm(tag: str) -> tuple[str, Optional[str]]:
    """Split an algorithm tag into (name, maxsize spec). Valid tags:
    "eppstein", "exact", "cutoff-ibfs:log", "cutoff-ibfs:n",
    "cutoff-ibfs:unbounded", "cutoff-ibfs:<int>"."""
    name, _, spec = tag.partition(":")
    if name not in KNOWN_ALGORITHMS:
        raise ValueError(f"unknown algorithm {tag!r}")
    if name != "cutoff-ibfs":
        if spec:
            raise ValueError(f"{name} takes no maxsize spec: {tag!r}")
        return name, None
    if not spec:
        raise ValueError(f"cutoff-ibfs needs a maxsize spec, e.g. {name}:n")
    # isdigit() alone also accepts digits int() rejects, such as "²"
    digits = spec.isascii() and spec.isdigit()
    if not (spec in ("log", "n", "unbounded") or (digits and int(spec) >= 1)):
        raise ValueError(
            f"bad maxsize {spec!r}: use log, n, unbounded or an integer >= 1"
        )
    return name, spec


def resolve_maxsize(spec: str, n: int) -> Optional[int]:
    if spec == "log":
        return log_cap(n)
    if spec == "n":
        return n
    if spec == "unbounded":
        return UNBOUNDED
    return int(spec)


def solve(
    a: Automaton,
    tag: str,
    *,
    maxlen: Optional[int] = None,
    start_mode: str = "all",
    permute_by_indegree: bool = False,
) -> Optional[SearchResult]:
    """Run the algorithm a tag names on ``a``. A cutoff-ibfs tag runs
    `synchronize`, or with ``maxlen`` the inverse BFS alone up to that
    length; "eppstein" and "exact" ignore the start mode and permutation.
    Returns None if the word found is longer than ``maxlen``, whatever the
    algorithm. Raises NotSynchronizing, and InstanceTooLarge from exact."""
    name, spec = parse_algorithm(tag)
    if name == "eppstein":
        res = eppstein_greedy(a)
    elif name == "exact":
        res = exact_shortest(a)
    else:
        maxsize = resolve_maxsize(spec, a.n)  # type: ignore[arg-type]
        opts = dict(start_mode=start_mode, permute_by_indegree=permute_by_indegree)
        if maxlen is None:
            res = synchronize(a, maxsize, **opts)
        else:
            res = cutoff_ibfs(a, maxlen, maxsize, **opts)
    if res is not None and maxlen is not None and res.length > maxlen:
        return None
    return res


@dataclass
class ExperimentConfig:
    ns: tuple[int, ...]
    k: int = 2
    trials: int = 200
    seed: int = 0
    algorithms: tuple[str, ...] = ("eppstein", "cutoff-ibfs:n")
    start_mode: str = "all"
    permute_by_indegree: bool = False

    def __post_init__(self):
        self.ns = tuple(self.ns)
        self.algorithms = tuple(self.algorithms)
        if not self.ns or any(n < 1 for n in self.ns):
            raise ValueError("need at least one n >= 1")
        if self.k < 1:
            raise ValueError("need k >= 1")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if len(set(self.ns)) < len(self.ns):
            raise ValueError(f"repeated n in {list(self.ns)}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"repeated algorithm in {list(self.algorithms)}")
        for tag in self.algorithms:
            parse_algorithm(tag)
        if self.start_mode not in START_MODES:
            raise ValueError(f"unknown start mode {self.start_mode!r}")
        if "exact" in self.algorithms and max(self.ns) > EXACT_MAX_STATES:
            raise ValueError(
                f"exact handles n <= {EXACT_MAX_STATES}, got n={max(self.ns)}"
            )


def trial_seed(base: int, n: int, trial: int) -> int:
    """Deterministic per-trial automaton seed."""
    return (base * 1_000_003 + n) * 1_000_003 + trial


@dataclass
class TrialRow:
    n: int
    k: int
    trial: int
    seed: int
    algorithm: str
    length: int  # -1 = not synchronizing
    time_s: float
    frontier_peak: int

    def as_csv(self) -> list[str]:
        values = (getattr(self, name) for name in CSV_COLUMNS)
        return [f"{v:.6f}" if isinstance(v, float) else str(v) for v in values]


CSV_COLUMNS = tuple(f.name for f in fields(TrialRow))


def run_trial(cfg: ExperimentConfig, n: int, trial: int) -> list[TrialRow]:
    seed = trial_seed(cfg.seed, n, trial)
    a = random_automaton(n, cfg.k, seed)
    rows = []
    for tag in cfg.algorithms:
        t0 = time.perf_counter()
        try:
            res = solve(
                a,
                tag,
                start_mode=cfg.start_mode,
                permute_by_indegree=cfg.permute_by_indegree,
            )
            length, peak = res.length, res.frontier_peak()
        except NotSynchronizing:
            length, peak = -1, 0
        rows.append(
            TrialRow(n, cfg.k, trial, seed, tag, length, time.perf_counter() - t0, peak)
        )
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[TrialRow]:
    """All trial rows, ordered by (position of n in cfg.ns, trial, algorithm
    position), the trials run one after another."""
    return [row for n in cfg.ns for trial in range(cfg.trials)
            for row in run_trial(cfg, n, trial)]


def write_csv(rows: list[TrialRow], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(row.as_csv() for row in rows)


@dataclass
class SummaryLine:
    n: int
    algorithm: str
    trials: int
    synchronizing: int
    mean_length: Optional[float]
    mean_time_s: float


def summarize(rows: list[TrialRow]) -> list[SummaryLine]:
    """Per-(n, algorithm) means, in first-appearance order. Mean length is
    over synchronizing samples only; mean time is over all samples."""
    groups: dict[tuple[int, str], list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.n, row.algorithm), []).append(row)
    out = []
    for (n, algorithm), grp in groups.items():
        sync = [r for r in grp if r.length >= 0]
        out.append(
            SummaryLine(
                n=n,
                algorithm=algorithm,
                trials=len(grp),
                synchronizing=len(sync),
                mean_length=sum(r.length for r in sync) / len(sync) if sync else None,
                mean_time_s=sum(r.time_s for r in grp) / len(grp),
            )
        )
    return out


def format_summary(rows: list[TrialRow]) -> str:
    lines = ["# summary (non-synchronizing samples excluded from mean_length)"]
    for s in summarize(rows):
        mean_len = "n/a" if s.mean_length is None else f"{s.mean_length:.3f}"
        lines.append(
            f"n={s.n} algorithm={s.algorithm} trials={s.trials} "
            f"synchronizing={s.synchronizing} mean_length={mean_len} "
            f"mean_time_s={s.mean_time_s:.6f}"
        )
    return "\n".join(lines) + "\n"
