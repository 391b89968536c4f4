import csv
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PARITY_TAGS
from synchro import cerny, cli, random_automaton, serialize_automaton
from synchro.bench import (
    CSV_COLUMNS, NAMED_CAPS, ExperimentConfig, parse_algorithm, run_experiment, solve,
    trial_seed,
)
from synchro.cli import (
    EXIT_ERROR,
    EXIT_NOT_FOUND,
    EXIT_NOT_SYNCHRONIZING,
    EXIT_OK,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_cerny_cutoff_maxsize_n(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--cerny", "10", "--algo", "cutoff-ibfs:n"
    )
    assert code == EXIT_OK
    assert "length: 81" in out


def test_run_cerny2_eppstein(capsys):
    code, out, _ = run_cli(capsys, "run", "--cerny", "2", "--algo", "eppstein")
    assert code == EXIT_OK
    assert "length: 1" in out


def test_run_word_flag(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--cerny", "2", "--algo", "eppstein", "--word"
    )
    assert code == EXIT_OK
    assert "word: 1" in out


def test_run_word_with_two_digit_letters(capsys):
    # k = 12, so letters 10 and 11 print with two digits, each as str does
    res = solve(random_automaton(20, 12, 0), "cutoff-ibfs:n")
    assert max(res.word) >= 10
    code, out, _ = run_cli(
        capsys, "run", "--random", "20", "12", "--seed", "0", "--word"
    )
    assert code == EXIT_OK
    assert out.splitlines()[3] == f"word: {' '.join(map(str, res.word))}"


def test_exact_matches_unbounded_cutoff(capsys):
    def length_of(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        return [l for l in out.splitlines() if l.startswith("length:")][0]

    base = ("run", "--random", "6", "2", "--seed", "7")
    exact = length_of(*base, "--algo", "exact")
    heur = length_of(*base, "--algo", "cutoff-ibfs:unbounded")
    assert exact == heur


def test_not_synchronizing_exit_code(tmp_path, capsys):
    path = tmp_path / "perm.txt"
    path.write_text("3 2\n1 2\n2 0\n0 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--file", str(path), "--algo", "eppstein")
    assert code == EXIT_NOT_SYNCHRONIZING


def test_not_found_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "run", "--cerny", "4", "--algo", "cutoff-ibfs:4", "--maxlen", "3",
    )
    assert code == EXIT_NOT_FOUND


@pytest.mark.parametrize(
    "algo, maxlen, expect",
    [
        ("eppstein", "3", EXIT_NOT_FOUND),
        ("eppstein", "10", EXIT_OK),
        ("exact", "3", EXIT_NOT_FOUND),
        ("exact", "8", EXIT_NOT_FOUND),
        ("exact", "9", EXIT_OK),
    ],
)
def test_maxlen_bounds_every_algorithm(capsys, algo, maxlen, expect):
    # on C_4 Eppstein finds length 10 and the shortest word has length 9
    code, out, _ = run_cli(
        capsys, "run", "--cerny", "4", "--algo", algo, "--maxlen", maxlen
    )
    assert code == expect
    if expect == EXIT_NOT_FOUND:
        assert f"no reset word of length <= {maxlen} found" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n3 0\n0 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--file", str(path), "--algo", "eppstein")
    assert code == EXIT_ERROR
    assert "line 2" in err


@pytest.mark.parametrize(
    "text, line",
    [("+2 2\n1 0\n0 1\n", 1), ("2 2\n1 0\n0 0_1\n", 3), ("2 2\n-0 0\n0 1\n", 2),
     ("2 2\n\uff11 0\n0 1\n", 2)],
    ids=["header-plus", "row-underscore", "row-minus-zero", "row-fullwidth"],
)
def test_file_with_non_ascii_decimal_number_exits_1(tmp_path, capsys, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--file", str(path), "--algo", "eppstein")
    assert code == EXIT_ERROR == 1
    assert f"line {line}" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "content, reason",
    [(b"2 2\n1 \xff\n0 1\n", "line 2: not UTF-8 text"),
     (b"", "line 1: expected header 'n k'"), (None, "Is a directory")],
    ids=["undecodable", "empty", "directory"],
)
def test_unreadable_file_exits_1(tmp_path, capsys, content, reason):
    path = tmp_path / "machine"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "run", "--file", str(path))
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""
    assert reason in err


def test_file_round_trip_run(tmp_path, capsys):
    path = tmp_path / "cerny4.txt"
    path.write_text(serialize_automaton(cerny(4)), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "run", "--file", str(path), "--algo", "exact"
    )
    assert code == EXIT_OK
    assert "length: 9" in out


def test_run_start_mode_and_permute(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--random", "20", "2", "--seed", "3",
        "--algo", "cutoff-ibfs:5",
        "--start-mode", "high-indegree", "--permute-indegree",
    )
    assert code == EXIT_OK
    assert "length:" in out


def test_bench_writes_csv_and_summary(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--n", "5", "--trials", "3", "--seed", "1",
        "--algos", "eppstein", "cutoff-ibfs:n", "--out", str(out_path),
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out_path.read_text(encoding="utf-8"))))
    assert len(rows) == 6
    assert set(rows[0]) == {
        "n", "k", "trial", "seed", "algorithm", "length", "time_s", "frontier_peak"
    }
    assert "# summary" in out
    assert "mean_length" in out


def test_bench_bad_out_path_fails_before_the_trials(tmp_path, capsys, monkeypatch):
    def no_trials(cfg):
        raise AssertionError("trials ran before the output file was opened")

    monkeypatch.setattr(cli, "run_experiment", no_trials)
    code, _, err = run_cli(
        capsys, "bench", "--n", "4", "--trials", "1",
        "--out", str(tmp_path / "missing-dir" / "rows.csv"),
    )
    assert code == EXIT_ERROR
    assert err.startswith("error: ")


def test_bench_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n", "4", "--trials", "2", "--algos", "eppstein"
    )
    assert code == EXIT_OK
    assert out.startswith("n,k,trial,seed,algorithm,length,time_s,frontier_peak")


def test_bench_defaults_are_the_config_defaults():
    args = cli._build_parser().parse_args(["bench"])
    defaults = (args.k, args.trials, args.seed, tuple(args.algos))
    cfg = ExperimentConfig(ns=args.n)
    assert defaults == (cfg.k, cfg.trials, cfg.seed, cfg.algorithms)
    assert cfg.algorithms == ("eppstein", "cutoff-ibfs:log", "cutoff-ibfs:n")


def test_bench_ignores_the_removed_jobs_variable(capsys, monkeypatch):
    # the trials always run in one process: the jobs variable older versions
    # read, whatever its value, changes nothing but the times
    def untimed(out):
        return re.sub(r"(,|mean_time_s=)\d+\.\d{6}", r"\1", out)

    argv = ("bench", "--n", "5", "--trials", "2", "--seed", "3")
    _, plain, _ = run_cli(capsys, *argv)
    for jobs in ("abc", "0"):
        monkeypatch.setenv("SYNCHRO_JOBS", jobs)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert untimed(out) == untimed(plain)


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--cerny", "4", "--algo", "cutoff-ibfs:0"),
        ("run", "--cerny", "4", "--maxlen", "-1"),
        ("bench", "--n", "30", "--trials", "1", "--algos", "exact"),
        ("run", "--random", "21", "2", "--algo", "exact"),
        ("bench", "--n", "6", "6", "--trials", "2"),
        ("bench", "--n", "6", "--trials", "3", "--algos", "eppstein", "eppstein"),
        ("run", "--cerny", "3", "--algo", "cutoff-ibfs:²"),
        ("run", "--cerny", "3", "--algo", "cutoff-ibfs:３"),
        ("bench", "--n", "4", "--trials", "1", "--algos", "cutoff-ibfs:²"),
        ("bench", "--n", "4", "--trials", "1", "--algos", "cutoff-ibfs:３"),
        ("bench", "--n", "8", "25", "--trials", "3", "--algos", "eppstein", "exact:"),
        ("run", "--cerny", "1"),
        ("run", "--random", "0", "2"),
        ("run", "--random", "3", "0"),
        ("bench", "--n", "0"),
        ("bench", "--n", "5", "--k", "0"),
        ("bench", "--n", "5", "--trials", "0"),
    ],
    ids=[
        "maxsize-0",
        "maxlen-negative",
        "exact-n-too-large",
        "run-exact-n-too-large",
        "bench-repeated-n",
        "bench-repeated-algo",
        "maxsize-superscript-digit",
        "maxsize-fullwidth-digit",
        "bench-maxsize-superscript-digit",
        "bench-maxsize-fullwidth-digit",
        "bench-exact-alias",
        "cerny-1",
        "random-n-0",
        "random-k-0",
        "bench-n-0",
        "bench-k-0",
        "bench-trials-0",
    ],
)
def test_bad_input_exits_with_error_not_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""
    if argv[-1] == "exact:":
        # the alias is refused before any trial, not at the n=25 limit
        assert "'exact:'" in err


@pytest.mark.parametrize("spec", ["²", "３"])
@pytest.mark.parametrize(
    "argv",
    [("run", "--cerny", "3", "--algo"), ("bench", "--n", "4", "--trials", "1", "--algos")],
    ids=["run", "bench"],
)
def test_non_ascii_digit_maxsize_is_a_bad_maxsize(capsys, argv, spec):
    code, _, err = run_cli(capsys, *argv, f"cutoff-ibfs:{spec}")
    assert code == EXIT_ERROR
    assert err == (
        f"error: bad maxsize {spec!r}: use log, n, unbounded or an integer >= 1\n"
    )


@pytest.mark.parametrize("spec", ["07", "00"])
@pytest.mark.parametrize(
    "argv",
    [("run", "--cerny", "3", "--algo"), ("bench", "--n", "4", "--trials", "1", "--algos")],
    ids=["run", "bench"],
)
def test_leading_zero_maxsize_names_the_zero(capsys, argv, spec):
    code, _, err = run_cli(capsys, *argv, f"cutoff-ibfs:{spec}")
    assert code == EXIT_ERROR
    assert err == f"error: bad maxsize {spec!r}: an integer has no leading zero\n"


def test_over_long_maxsize_fails_before_any_work(tmp_path, capsys):
    # one digit past the interpreter's default limit on int() digits
    tag = "cutoff-ibfs:" + "9" * 4301
    out = tmp_path / "rows.csv"
    out.write_text("kept\n", encoding="utf-8")
    bench = run_cli(
        capsys, "bench", "--n", "4", "--trials", "2", "--algos", "eppstein", tag,
        "--out", str(out),
    )
    run = run_cli(capsys, "run", "--cerny", "4", "--algo", tag)
    assert run == bench == (EXIT_ERROR, "", "error: bad maxsize: 4301 digits are too many\n")
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_run_length_matches_the_bench_row(tmp_path, capsys):
    # run and bench take one tag grammar, so a tag gives the same word length
    rows = run_experiment(
        ExperimentConfig(ns=(8,), trials=4, seed=0, algorithms=PARITY_TAGS)
    )
    assert len(rows) == 4 * len(PARITY_TAGS)
    for row in rows:
        assert row.seed == trial_seed(0, 8, row.trial)
        path = tmp_path / f"trial{row.trial}.txt"
        text = serialize_automaton(random_automaton(8, 2, row.seed))
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--file", str(path), "--algo", row.algorithm)
        if row.length < 0:
            assert code == EXIT_NOT_SYNCHRONIZING
        else:
            assert code == EXIT_OK
            assert f"length: {row.length}\n" in out


def test_run_needs_a_maxsize_in_the_tag(capsys):
    code, out, err = run_cli(capsys, "run", "--cerny", "4", "--algo", "cutoff-ibfs")
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: cutoff-ibfs needs a maxsize spec, e.g. cutoff-ibfs:n\n"


def test_run_has_no_maxsize_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--cerny", "4", "--maxsize", "n"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --maxsize" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tag", ["cutoff-ibfs", "cutoff-ibfs:", "cutoff-ibfs:0", "cutoff-ibfs:-1",
            "eppstein:3", "exact:n", "cycle", "", "eppstein:", "exact:",
            "cutoff-ibfs:07"],
)
def test_run_rejects_a_tag_as_bench_does(capsys, tag):
    run = run_cli(capsys, "run", "--cerny", "4", "--algo", tag)
    bench = run_cli(capsys, "bench", "--n", "4", "--trials", "1", "--algos", tag)
    assert run[0] == bench[0] == EXIT_ERROR
    assert run[2] == bench[2]
    assert run[2].startswith("error: ") and "Traceback" not in run[2]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands(subcommand):
    """The `synchro <subcommand>` lines of README's fenced sh blocks, `\\`
    continuations joined, as (command, trailing comment)."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith(f"synchro {subcommand} "):
                commands.append((command, comment))
    return commands


def _readme_run_lines():
    """The `synchro run` commands of README's fenced blocks, `\\` continuations
    joined, as (argv after "synchro", expected length or None)."""
    commands = []
    for command, comment in _readme_commands("run"):
        if "--file" in command:
            continue
        length = re.fullmatch(r"\s*length (\d+)\s*", comment)
        commands.append((shlex.split(command)[1:], int(length[1]) if length else None))
    return commands


def test_readme_run_examples_run(capsys):
    commands = _readme_run_lines()
    assert len(commands) >= 3
    for argv, length in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        if length is not None:
            assert f"length: {length}\n" in out, argv


def test_readme_states_the_cli_contract(capsys, monkeypatch, tmp_path):
    """README's CSV header, exit codes, tag grammar and bench example agree
    with the code that defines them."""
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"^```csv\n(.*)\n```$", text, re.M) == [",".join(CSV_COLUMNS)]

    sentence = re.search(r"^Exit codes: (.*?)\.\s", text, re.M | re.S)[1]
    stated = dict(item.split(" ", 1) for item in " ".join(sentence.split()).split(", "))
    assert stated == {
        str(EXIT_OK): "found",
        str(EXIT_ERROR): "error",
        str(EXIT_NOT_FOUND): "no word within `--maxlen`",
        str(EXIT_NOT_SYNCHRONIZING): "not synchronizing",
    }

    grammar = dict(re.findall(r"^(TAG|CAP) := (.*)$", text, re.M))
    caps = grammar["CAP"].split(" | ")
    assert sorted(caps) == sorted([*NAMED_CAPS, "INT"])
    for tag in grammar["TAG"].split(" | "):
        for cap in caps:
            parse_algorithm(tag.replace("CAP", "1" if cap == "INT" else cap))

    # each bench example parses and its options make a config; no trial runs
    configs = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: configs.append(cfg) or [])
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands("bench")
    assert commands
    for command, _ in commands:
        code, _, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == EXIT_OK, (command, err)
    assert len(configs) == len(commands)


def run_cli_process(argv, stdout, preexec_fn=None):
    # a fresh interpreter, so its exit-time flush of stdout runs too
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "synchro.cli", *argv], stdout=stdout,
        stderr=subprocess.PIPE, encoding="utf-8", env=env, timeout=60,
        preexec_fn=preexec_fn,
    )


def run_cli_process_in_little_memory(argv):
    # 1.5 GB of address space, set in the child alone
    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    return run_cli_process(argv, subprocess.PIPE, preexec_fn=limit)


def assert_error_without_traceback(proc):
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["run", "--cerny", "30", "--word"], ["bench", "--n", "5", "--trials", "2"]],
    ids=["run", "bench"],
)
def test_closed_stdout_pipe_is_an_error_not_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process(argv, write_end)
    finally:
        os.close(write_end)
    assert_error_without_traceback(proc)
    assert "Broken pipe" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_bench_out_to_full_device_is_an_error_not_a_traceback():
    proc = run_cli_process(
        ["bench", "--n", "5", "--trials", "2", "--out", "/dev/full"], subprocess.PIPE
    )
    assert_error_without_traceback(proc)
    assert "No space left" in proc.stderr


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
@pytest.mark.parametrize(
    "argv",
    [["run", "--random", "30000", "2"],
     ["bench", "--n", "30000", "--trials", "1", "--algos", "eppstein"]],
    ids=["run", "bench"],
)
def test_out_of_memory_is_an_error_not_a_traceback(argv):
    # the pair table alone takes 2 n^2 bytes, 1.8 GB at n = 30000, so under
    # the limit its allocation fails at once; run only under the limit
    proc = run_cli_process_in_little_memory(argv)
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
    assert proc.stderr == "error: out of memory\n"
