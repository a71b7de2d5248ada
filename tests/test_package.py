"""The package's public names."""

import hyperwalk as hw


def test_public_names_are_sorted_unique_and_resolve():
    assert hw.__all__ == sorted(set(hw.__all__))
    for name in hw.__all__:
        assert hasattr(hw, name), name
    namespace = {}
    exec("from hyperwalk import *", namespace)
    assert set(hw.__all__) <= namespace.keys()
