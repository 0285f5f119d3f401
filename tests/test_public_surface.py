"""The package's public names: what ``polarimeter.__all__`` lists exists."""

from __future__ import annotations

import polarimeter


def test_all_names_resolve_are_unique_and_sorted_and_star_import_works():
    names = polarimeter.__all__
    assert [name for name in names if not hasattr(polarimeter, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace = {}
    exec("from polarimeter import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == names
    assert all(namespace[name] is getattr(polarimeter, name) for name in names)
