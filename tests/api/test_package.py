"""The ``repro.api`` façade: lazy re-exports of registry, schema and service."""

import pytest

import repro.api
from repro.api import registry, schema, service


def test_every_export_is_the_defining_modules_object():
    for name in repro.api.__all__:
        owners = [m for m in (registry, schema, service) if hasattr(m, name)]
        assert owners, name
        assert getattr(repro.api, name) is getattr(owners[0], name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Nope'"):
        repro.api.Nope


def test_dir_lists_the_lazy_exports():
    listed = dir(repro.api)
    assert set(repro.api.__all__) <= set(listed)
    assert listed == sorted(listed)
