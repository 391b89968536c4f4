"""The public names: every export resolves, so a stale entry in
``synchro.__all__`` fails here rather than in a user's import, and every
entry point that the benchmark's tracer hooks still exists. The package
imports nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

import synchro


def test_every_exported_name_resolves():
    missing = [name for name in synchro.__all__ if not hasattr(synchro, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from synchro import *", namespace)
    assert set(synchro.__all__) <= set(namespace)


def test_no_duplicate_exports():
    assert len(synchro.__all__) == len(set(synchro.__all__))


def test_package_imports_only_the_standard_library():
    # an installed third-party module would import fine here, so read the
    # import statements instead; relative imports are the package's own
    outside = []
    for path in sorted(Path(synchro.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_benchmark_hook_targets_exist(monkeypatch):
    # perfbench wraps these entry points; a rename shows up here, not only
    # in its own self-tests
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracer

    preimage_bits = synchro.Automaton.preimage_bits
    settrie = synchro.search.SetTrie
    t = tracer.Tracer()
    try:
        t.install(synchro)
        assert t.missing == []
    finally:
        t.uninstall()
    assert synchro.Automaton.preimage_bits is preimage_bits
    assert synchro.search.SetTrie is settrie


def test_traced_solve_tallies_search_calls(monkeypatch):
    # level 1 reads the inverse masks directly, but later levels still go
    # through the hooked preimage kernel; each level that ends without the
    # goal makes one hooked cut, and the dedup is built in C, unhooked
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracer

    a = synchro.random_automaton(12, 2, 0)
    res = synchro.synchronize(a, 12)
    assert res.algorithm == "cutoff-ibfs"
    t = tracer.Tracer()
    try:
        t.install(synchro)
        with t.span("solve"):
            traced = synchro.synchronize(a, 12)
    finally:
        t.uninstall()
    assert traced == res
    calls = {}
    for sp in t.spans:
        for name, tally in sp.calls.items():
            calls[name] = calls.get(name, 0) + tally[tracer.CALLS]
    assert calls.get("preimage", 0) > 0
    assert "settrie.insert" not in calls
    assert calls.get("settrie.take", 0) == len(res.level_distinct) == res.length - 1 == 9
