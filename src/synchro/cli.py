"""Command-line interface.

Subcommands:
  run    one automaton (from a file, the Cerny family, or a random seed),
         one algorithm, printed report
  bench  the benchmark matrix, CSV rows plus a summary block

Exit codes for `run`: 0 found, 3 no word within maxlen, 4 not synchronizing.
Both commands exit 1 on bad input, a failed write, or out of memory, with
one `error:` line on stderr and no traceback; a command that fails on bad
input, or out of memory before `bench` finishes its first row, prints
nothing to stdout. `bench` checks its input before any trial and writes
each CSV row as its trial ends, so a run cut short keeps the rows it
finished. argparse usage errors exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from .automaton import (
    START_MODES, Automaton, AutomatonFormatError, _text_lines, cerny,
    parse_automaton, random_automaton,
)
from .bench import (
    NAMED_CAPS, ExperimentConfig, format_summary, iter_experiment, solve, write_csv,
)
from .results import NotSynchronizing, SearchResult, _render_word

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 3
EXIT_NOT_SYNCHRONIZING = 4

ALGO_HELP = (
    f"algorithm tags: eppstein, exact, cutoff-ibfs:{{{'|'.join(NAMED_CAPS)}|<int>}}"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synchro",
        description="Find short reset words of deterministic finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the search options, the same flags for both commands
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--start-mode", default="all", choices=START_MODES)
    search.add_argument("--permute-indegree", action="store_true")

    run = sub.add_parser(
        "run", parents=[search], help="run one algorithm on one automaton"
    )
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", type=Path, help="automaton in the text format")
    src.add_argument("--cerny", type=int, metavar="N", help="Cerny automaton C_N")
    src.add_argument(
        "--random", type=int, nargs=2, metavar=("N", "K"),
        help="uniformly random automaton (see --seed)",
    )
    run.add_argument("--seed", type=int, default=0, help="seed for --random")
    run.add_argument("--algo", default="cutoff-ibfs:n", help=ALGO_HELP)
    run.add_argument(
        "--maxlen", type=int, default=None,
        help="longest word to accept (exit 3 if longer); cutoff-ibfs then "
        "runs standalone up to this length instead of using the Eppstein bound",
    )
    run.add_argument("--word", action="store_true", help="print the found word")

    bench = sub.add_parser(
        "bench", parents=[search], help="benchmark a matrix of algorithms"
    )
    bench.add_argument(
        "--n", type=int, nargs="+", default=[50, 100, 200], help="state counts"
    )
    # the matrix defaults are the config's, so the two cannot drift apart
    cfg = ExperimentConfig
    bench.add_argument("--k", type=int, default=cfg.k, help="alphabet size")
    bench.add_argument(
        "--trials", type=int, default=cfg.trials, help="random automata per n"
    )
    bench.add_argument(
        "--seed", type=int, default=cfg.seed, help="seed of the automata"
    )
    bench.add_argument(
        "--algos", nargs="+", default=list(cfg.algorithms), help=ALGO_HELP
    )
    bench.add_argument("--out", type=Path, default=None, help="CSV output path")
    return parser


def _load_automaton(args) -> Automaton:
    if args.file is not None:
        data = args.file.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bytes before the fault decode, and lines count as the parser's
            line = len(_text_lines(data[: exc.start].decode("utf-8")))
            raise AutomatonFormatError("not UTF-8 text", line) from None
        return parse_automaton(text)
    if args.cerny is not None:
        return cerny(args.cerny)
    n, k = args.random
    return random_automaton(n, k, args.seed)


def _print_report(res: SearchResult, show_word: bool, elapsed: float) -> None:
    print(f"algorithm: {res.algorithm}")
    print(f"length: {res.length}")
    if show_word:
        print(f"word: {_render_word(res.word, ' ')}")
    if res.frontier_sizes:
        print(f"frontier sizes: {res.frontier_sizes}")
        print(f"frontier peak: {res.frontier_peak()}")
    print(f"time_s: {elapsed:.6f}")


def _cmd_run(args) -> int:
    a = _load_automaton(args)
    header = f"n: {a.n}  k: {a.k}"
    try:
        t0 = time.perf_counter()
        res = solve(
            a, args.algo, maxlen=args.maxlen, start_mode=args.start_mode,
            permute_by_indegree=args.permute_indegree,
        )
        elapsed = time.perf_counter() - t0
    except NotSynchronizing:
        print(header, "not synchronizing", sep="\n")
        return EXIT_NOT_SYNCHRONIZING

    print(header)
    if res is None:
        print(f"no reset word of length <= {args.maxlen} found")
        return EXIT_NOT_FOUND
    _print_report(res, args.word, elapsed)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig(
        ns=args.n, k=args.k, trials=args.trials, seed=args.seed, algorithms=args.algos,
        start_mode=args.start_mode, permute_by_indegree=args.permute_indegree,
    )
    # open the file first, so a bad path fails before the trials run
    out = (nullcontext(sys.stdout) if args.out is None
           else open(args.out, "w", encoding="utf-8"))
    with out as fh:
        rows = write_csv(iter_experiment(cfg), fh)
    print(f"# seed={cfg.seed}")
    print(format_summary(rows), end="")
    return EXIT_OK


def _drop_stdout() -> None:
    """Point stdout at the null device, so that the flush at exit neither
    fails again nor reports the lost output as an ignored exception."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # a replaced stdout, as under capture
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _cmd_run if args.command == "run" else _cmd_bench
    try:
        code = command(args)
        sys.stdout.flush()
    except (OSError, ValueError, MemoryError) as exc:
        # Bad input, a failed write (a full disk, or a reader that closed
        # the pipe) or a table too large for memory: each ends the command
        # with one line and no traceback. A MemoryError has no message.
        try:
            sys.stdout.flush()
        except OSError:
            _drop_stdout()
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
