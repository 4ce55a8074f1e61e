"""The package's public surface."""

import rpbandits


def test_all_names_resolve_without_duplicates():
    names = rpbandits.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rpbandits, name)] == []
