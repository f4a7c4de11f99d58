"""The package namespace: every public name is exported once."""

import relusplines as rs

MODULES = (
    rs.analysis,
    rs.core,
    rs.evaluate,
    rs.normalize,
    rs.serialization,
    rs.synth,
    rs.transfer,
)


def test_all_is_the_union_of_module_lists():
    expected = {name for module in MODULES for name in module.__all__}
    assert set(rs.__all__) == expected
    assert len(rs.__all__) == len(set(rs.__all__))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rs, name) is getattr(module, name)


def test_star_import_exports_every_public_name():
    namespace = {}
    exec("from relusplines import *", namespace)
    assert "write_csv" in namespace
    assert set(rs.__all__) <= set(namespace)
