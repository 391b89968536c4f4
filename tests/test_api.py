"""The public names: every export resolves, so a stale entry in
``synchro.__all__`` fails here rather than in a user's import."""

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
