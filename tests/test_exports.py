"""The package's __all__ lists each public name once, in order, and each resolves."""

import rotframes


def test_every_exported_name_resolves():
    missing = [name for name in rotframes.__all__ if not hasattr(rotframes, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(rotframes.__all__)) == len(rotframes.__all__)
    assert rotframes.__all__ == sorted(rotframes.__all__)
