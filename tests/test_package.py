"""The package's public names."""

import hyperwalk as hw


def test_public_names_are_sorted_unique_and_resolve():
    assert hw.__all__ == sorted(set(hw.__all__))
    for name in hw.__all__:
        assert hasattr(hw, name), name
    namespace = {}
    exec("from hyperwalk import *", namespace)
    assert set(hw.__all__) <= namespace.keys()


def test_every_exception_is_a_hyperwalk_error():
    assert issubclass(hw.HyperwalkError, ValueError)
    errors = [obj for obj in vars(hw).values() if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert hw.HgSyntaxError in errors
    assert all(issubclass(error, hw.HyperwalkError) for error in errors)


def test_public_api_has_at_most_37_names():
    assert len(hw.__all__) <= 37
