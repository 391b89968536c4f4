"""Closed-loop benchmark of synchro's public solve calls.

One caller solves one automaton at a time, in one process, with no threads
and no ``SYNCHRO_JOBS``. Each workload runs in its own process:

    python3 perfbench/run.py --workload random-wide --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all              # every workload, full report
    python3 perfbench/run.py --all --smoke      # tiny instances, seconds

Run it from the root of a checkout; ``src/`` is imported from there. Inputs
depend only on the workload and ``--seed`` (default 0). A run solves the
workload's batch once, then repeats whole passes while another pass still
fits in ``--seconds``; every pass solves the same automata, each freshly
constructed, so a pass pays the lazy inverse table as a user would.
Quality numbers come from the first pass.

Times are calibrated: before each solve the benchmark times a fixed
pure-Python reference loop, and each solve's wall time is rescaled by
``REFERENCE_S`` over the mean of the loop times just before and after it.
This removes the drift in CPU speed that a shared VM shows between and
within runs; the raw wall times are printed beside the calibrated ones.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes one pass
with hooks around each layer's public entry points (see ``tracer.py``),
writes the spans to ``.perfbench-out/`` and prints the per-layer metrics;
their times are calibrated per solve like the end-to-end ones, and
``trace.solve_s``, the mean traced solve time, gives the tracing overhead
as ``trace.solve_s - 1 / instances_per_s``.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, prefixed
``info:``, carries the sample count, ``failed_frac``, ``solve_s.p90`` where
at least ten samples lie beyond it, the raw wall times, and a SHA-256
digest of the ordered ``SearchResult.fingerprint()`` strings of the first
pass.

Checks run after the timer stops and never abort the run: every word
synchronizes and has the reported length, Cerny ``synchronize`` lengths are
(n-1)^2, ``eppstein_greedy(cerny(300))`` has length 267662, later passes
repeat the first pass's fingerprints (which hold the words, so a repeat
needs no word check), and in the traced run the result is never longer
than Eppstein's. ``NotSynchronizing`` on a random automaton is
counted apart and left out of ``mean_length``; any other exception, or a
failed check, counts as a failed operation.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

# Write no bytecode into the checkout, for this file's imports too.
sys.dont_write_bytecode = True
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
# Typical time of reference_seconds() on a quiet 2-core x86 VM (Python
# 3.11); it only sets the unit of calibrated times. On that shared VM the CPU
# speed one process sees drifted by up to 2x within minutes, so raw medians
# of one workload moved by 15-25% between runs, and calibrated ones by 2-10%.
REFERENCE_S = 0.0058


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "synchronize" or "eppstein_greedy"
    family: str  # "random" or "cerny"
    sizes: tuple[int, ...]  # cerny sizes, or the one n of a random batch
    k: int = 2
    cap: str = "-"  # "n", "log", or "-" for eppstein_greedy
    batch: int = 1  # random automata per seed
    expected_length: int | None = None  # fixed output of eppstein_greedy


# Random batch sizes put one pass at 15-20 s on a 2-core x86 VM (Python
# 3.11), so a 20 s run measures one pass of distinct automata: more automata
# per seed keep the seed-to-seed spread of medians and mean_length down.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-wide", "synchronize", "random", (100,), cap="n", batch=72),
        Workload("cerny-deep", "synchronize", "cerny", tuple(range(2, 31)), cap="n"),
        Workload("random-large", "synchronize", "random", (1000,), cap="log", batch=10),
        Workload(
            "cerny-greedy", "eppstein_greedy", "cerny", (300,), expected_length=267662
        ),
    )
}

SMOKE = {
    "random-wide": dict(sizes=(12,), batch=6),
    "cerny-deep": dict(sizes=(2, 3, 4, 5, 6)),
    "random-large": dict(sizes=(40,), batch=3),
    "cerny-greedy": dict(sizes=(10,), expected_length=97),
}


def workload(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w


def load_synchro():
    """Import ``synchro`` from this checkout's ``src/``, compiling from
    source every time (no bytecode is read or written), so set-up time is
    the same in a fresh checkout and a used one."""
    if not (SRC / "synchro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no synchro sources under {SRC}")
    sys.pycache_prefix = str(OUT / "no-bytecode")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import synchro
    import synchro.baselines
    import synchro.search

    if Path(synchro.__file__).resolve().parent != (SRC / "synchro").resolve():
        raise SystemExit(f"perfbench: imported synchro from {synchro.__file__}")
    return synchro


def build_inputs(w: Workload, seed: int, synchro) -> list:
    if w.family == "random":
        (n,) = w.sizes
        return [
            synchro.random_automaton(n, w.k, seed * 1_000_003 + i)
            for i in range(w.batch)
        ]
    return [synchro.cerny(n) for n in w.sizes]


def solver(w: Workload, synchro):
    """The public call a workload makes, looked up on every call so that
    hooks and test stubs take effect."""
    if w.entry == "eppstein_greedy":
        return lambda a: synchro.baselines.eppstein_greedy(a)
    if w.cap == "n":
        return lambda a: synchro.search.synchronize(a, a.n)
    return lambda a: synchro.search.synchronize(a, synchro.search.log_cap(a.n))


def check(w: Workload, a, res) -> str | None:
    """Reason the result is wrong, or None."""
    if len(res.word) != res.length:
        return f"word has {len(res.word)} letters, length says {res.length}"
    if not a.is_synchronizing_word(res.word):
        return "returned word does not synchronize"
    optimum = (a.n - 1) ** 2
    if w.family == "cerny" and w.entry == "synchronize" and res.length != optimum:
        return f"cerny({a.n}) length {res.length}, expected {optimum}"
    if w.expected_length is not None and res.length != w.expected_length:
        return f"length {res.length}, expected {w.expected_length}"
    return None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    not_synchronizing: int = 0
    times: list[float] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)  # first pass, synchronizing
    fingerprints: list[str] = field(default_factory=list)  # first pass
    bad: set[int] = field(default_factory=set)  # batch indices failed in the first pass
    errors: list[str] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference loop, around each solve

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
            print(f"perfbench: FAILED {message}", file=sys.stderr)


class _Link:
    __slots__ = ("bits", "prev")

    def __init__(self, bits: int, prev):
        self.bits = bits
        self.prev = prev


_REF_RNG = random.Random(7)
_REF_COLUMN = [_REF_RNG.randrange(512) for _ in range(512)]
_REF_SETS = [_REF_RNG.getrandbits(512) for _ in range(48)]
_REF_TABLE = [_REF_RNG.randrange(1, 60) for _ in range(200 * 200)]


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop, independent of synchro, with
    the mix of work its solvers do: bit iteration over wide ints with table
    lookups, small-object allocation with dict inserts, and a flat-list pair
    scan. A loop of one kind of work tracked the solvers' slow-downs less
    well than this mix."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for s in _REF_SETS:
        while s:
            low = s & -s
            acc |= 1 << _REF_COLUMN[low.bit_length() - 1]
            s ^= low
    seen = {}
    prev = None
    for i in range(6000):
        prev = _Link(acc ^ i, prev)
        seen.setdefault(prev.bits & 0xFFFF, prev)
    best = 1 << 30
    for i in range(200):
        base = i * 200
        for j in range(i + 1, 200, 2):
            d = _REF_TABLE[base + j]
            if d < best:
                best = d
    elapsed = time.perf_counter() - t0
    if gc_was_enabled:
        gc.enable()
    return elapsed


def calibration(ref_before: float, ref_after: float) -> float:
    """Factor that rescales wall seconds to a CPU on which the reference
    loop takes REFERENCE_S, from the loop timed just before and after."""
    return REFERENCE_S * 2 / (ref_before + ref_after)


def solve_once(w, synchro, call, template, index, first_pass, tally, tracer):
    tally.refs.append(reference_seconds())
    a = synchro.Automaton(template.rows)
    tally.attempted += 1
    res = exc = None
    t0 = time.perf_counter()
    if tracer is None:
        try:
            res = call(a)
        except Exception as e:  # checked below, after the timer stops
            exc = e
    else:
        first_span = len(tracer.spans)
        with tracer.span("solve") as root:
            if "inverse" in tracer.hooked:
                with tracer.span("automaton.inverse"):
                    a.build_inverse()
            try:
                res = call(a)
            except Exception as e:
                exc = e
    tally.times.append(time.perf_counter() - t0)

    label = f"{w.name}[{index}] n={a.n}"
    if isinstance(exc, synchro.NotSynchronizing) and w.family == "random":
        tally.not_synchronizing += 1
        fingerprint = "not-synchronizing"
    elif exc is not None:
        tally.fail(f"{label}: {''.join(traceback.format_exception_only(exc)).strip()}")
        fingerprint = f"error:{type(exc).__name__}"
    else:
        try:
            fingerprint = res.fingerprint()
            # A later pass is checked by matching the first pass's
            # fingerprint, which holds the whole word; re-checking a
            # 267662-letter word would cost as much as solving.
            problem = check(w, a, res) if first_pass else None
        except Exception as e:  # a malformed result is a failed operation
            fingerprint = f"malformed:{type(e).__name__}"
            problem = f"malformed result {res!r}: {e!r}"
        if tracer is not None and w.entry == "synchronize" and not problem:
            bounds = [
                sp.info["length"]
                for sp in tracer.spans[first_span:]
                if sp.name == "baselines.eppstein" and "length" in sp.info
            ]
            if bounds:
                bound = min(bounds)
                root.info["improved"] = int(res.length < bound)
                if res.length > bound:
                    problem = f"length {res.length} exceeds Eppstein's {bound}"
        if problem:
            tally.fail(f"{label}: {problem}")
            tally.bad.add(index)
        elif first_pass:
            tally.lengths.append(res.length)
    if first_pass:
        tally.fingerprints.append(fingerprint)
    elif fingerprint != tally.fingerprints[index]:
        tally.fail(f"{label}: result differs from the first pass")
    elif index in tally.bad:
        tally.fail(f"{label}: repeats the failed first-pass result")


def setup_seconds(w: Workload, seed: int, smoke: bool) -> tuple[float, float]:
    """Median over fresh processes of importing synchro and building the
    workload's automata: (calibrated, wall) seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", w.name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    wall, cal = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S
        )
        seconds, ref_before, ref_after = map(float, out.stdout.split()[-3:])
        wall.append(seconds)
        cal.append(seconds * calibration(ref_before, ref_after))
    return statistics.median(cal), statistics.median(wall)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
):
    """One benchmark run in this process; returns (result, info)."""
    w = workload(name, smoke)
    synchro = load_synchro()
    inputs = build_inputs(w, seed, synchro)
    call = solver(w, synchro)
    tally = Tally()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(synchro)
    passes = 0
    started = time.perf_counter()
    try:
        while True:
            for i, template in enumerate(inputs):
                solve_once(w, synchro, call, template, i, passes == 0, tally, tracer)
            passes += 1
            elapsed = time.perf_counter() - started
            if trace or elapsed + elapsed / passes > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    tally.refs.append(reference_seconds())
    refs = tally.refs
    scales = [calibration(refs[i], refs[i + 1]) for i in range(len(tally.times))]
    times = [t * f for t, f in zip(tally.times, scales)]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    beyond = sum(t > p90 for t in times)
    info = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "entry": w.entry,
        "n": list(w.sizes) if w.family == "cerny" else w.sizes[0],
        "k": w.k,
        "cap": w.cap,
        "passes": passes,
        "samples": len(times),
        "not_synchronizing": tally.not_synchronizing,
        "failed_frac": tally.failed / tally.attempted,
        "solve_s.p90": p90 if beyond >= 10 else None,
        "samples_beyond_p90": beyond,
        "digest": hashlib.sha256("\n".join(tally.fingerprints).encode()).hexdigest(),
        "reference_s.p50": statistics.median(refs),
        "wall.solve_s.p50": statistics.median(tally.times),
        "wall.instances_per_s": len(tally.times) / sum(tally.times),
        "errors": tally.errors,
    }
    if trace:
        metrics = layer_metrics(tracer, scales)
        info["missing_hooks"] = tracer.missing
        info["trace_file"] = str(write_spans(tracer, w.name, seed).relative_to(ROOT))
    else:
        setup_s, info["wall.setup_s"] = setup_seconds(w, seed, smoke)
        lengths = tally.lengths
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s.p50": (statistics.median(times), "s"),
            "instances_per_s": (len(times) / sum(times), "1/s"),
            "mean_length": (statistics.fmean(lengths) if lengths else 0.0, "letters"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with path.open("w") as f:
        for sp in tracer.spans:
            f.write(json.dumps(sp.as_dict()) + "\n")
    return path


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(
        cmd + (["--smoke"] if smoke else []), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"perfbench: {name} --trace {trace} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("info: "))
    return json.loads(lines[-1]), info


def report_all(seed: int, seconds: float, smoke: bool) -> int:
    """Run every workload untraced and traced, each in a fresh process, and
    print every metric with its unit. Exit status 1 if any check failed."""
    status = 0
    for name in WORKLOADS:
        plain, info = run_child(name, seed, seconds, 0, smoke)
        traced, tinfo = run_child(name, seed, seconds, 1, smoke)
        status |= not (plain["correct"] and traced["correct"])
        n = info["n"]
        if isinstance(n, list):
            n = f"{n[0]}..{n[-1]}" if len(n) > 1 else n[0]
        print(f"== {name}: {info['entry']} n={n} k={info['k']} cap={info['cap']} "
              f"seed={seed}{' (smoke)' if smoke else ''}")
        for metric, v in plain["metrics"].items():
            print(f"  {metric:28s} {v['value']:<14.6g} {v['unit']}")
        p90 = info["solve_s.p90"]
        print(f"  {'solve_s.p90':28s} " + (
            f"{p90:<14.6g} s" if p90 is not None else
            f"{'n/a':14s} ({info['samples_beyond_p90']} samples beyond p90; needs 10)"))
        print(f"  {'samples':28s} {info['samples']:<14d} (passes: {info['passes']})")
        print(f"  {'failed_frac':28s} {info['failed_frac']:<14.6g} ratio "
              f"({plain['failed']}/{plain['attempted']} failed, "
              f"{info['not_synchronizing']} not synchronizing)")
        print(f"  {'digest':28s} sha256:{info['digest']}")
        for metric in ("wall.setup_s", "wall.solve_s.p50", "reference_s.p50"):
            print(f"  {metric:28s} {info[metric]:<14.6g} s (uncalibrated)")
        print(f"  {'wall.instances_per_s':28s} {info['wall.instances_per_s']:<14.6g} "
              "1/s (uncalibrated)")
        untraced_op_s = 1 / plain["metrics"]["instances_per_s"]["value"]
        traced_op_s = traced["metrics"]["trace.solve_s"]["value"]
        print(f"  {'tracing overhead':28s} {traced_op_s - untraced_op_s:<14.6g} s/op "
              f"({traced_op_s / untraced_op_s - 1:+.1%} of {untraced_op_s:.6g} s/op)")
        print(f"  -- traced, per solve ({tinfo['samples']} solves, spans in "
              f"{tinfo['trace_file']})")
        for metric, v in traced["metrics"].items():
            print(f"  {metric:28s} {v['value']:<14.6g} {v['unit']}")
        for hook in tinfo["missing_hooks"]:
            print(f"  hook target missing, metrics absent: {hook}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload and report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances (self-tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        return report_all(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        p.error("need --workload or --all")
    if args.setup_probe:
        ref_before = reference_seconds()
        t0 = time.perf_counter()
        build_inputs(workload(args.workload, args.smoke), args.seed, load_synchro())
        seconds = time.perf_counter() - t0
        print(seconds, ref_before, reference_seconds())
        return 0
    result, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
