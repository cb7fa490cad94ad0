"""The package's public names: ``from fracnoether import *`` binds each
name of ``__all__``, and ``__all__`` names each once."""

import collections

import fracnoether


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fracnoether import *", namespace)
    assert [name for name in fracnoether.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(fracnoether, name) for name in fracnoether.__all__)


def test_all_names_each_public_name_once():
    counts = collections.Counter(fracnoether.__all__)
    assert [name for name, count in counts.items() if count > 1] == []
