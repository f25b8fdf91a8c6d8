"""The package's public surface is exactly the names sparseobs.__all__
lists: an export cannot be added without being listed, or listed without
existing."""

import inspect

import sparseobs


def test_all_lists_exactly_the_public_namespace():
    assert sparseobs.__all__ == sorted(set(sparseobs.__all__))
    public = {
        name
        for name, value in vars(sparseobs).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(sparseobs.__all__) == public
