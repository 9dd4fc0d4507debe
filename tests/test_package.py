"""The package's export list."""

import nswforge


def test_every_export_resolves_once():
    assert len(set(nswforge.__all__)) == len(nswforge.__all__)
    missing = [name for name in nswforge.__all__ if not hasattr(nswforge, name)]
    assert missing == []
