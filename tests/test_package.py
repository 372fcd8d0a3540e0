"""The package's public surface."""

import ncplush


def test_every_exported_name_resolves():
    missing = [name for name in ncplush.__all__ if not hasattr(ncplush, name)]
    assert missing == []
    assert len(set(ncplush.__all__)) == len(ncplush.__all__)
