"""The package's public names."""

import types

import polarbec


def test_all_is_sorted_unique_and_lists_every_public_name():
    names = polarbec.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    bound = {
        name
        for name, value in vars(polarbec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == bound
