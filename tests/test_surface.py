"""The package surface: each public name is declared once, in its module's
``__all__``, and ``wrearr`` re-exports exactly those names."""

import wrearr
from wrearr import algebra, errors, norms, stepfn, weighted

MODULES = (algebra, errors, norms, stepfn, weighted)


def test_all_has_no_duplicates():
    assert len(wrearr.__all__) == len(set(wrearr.__all__))


def test_all_is_the_union_of_the_module_lists():
    assert set(wrearr.__all__) == {name for m in MODULES for name in m.__all__}


def test_every_name_resolves_to_its_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(wrearr, name) is getattr(m, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from wrearr import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(wrearr.__all__)
