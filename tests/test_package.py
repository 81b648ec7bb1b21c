import gtutte


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from gtutte import *", namespace)
    for name in gtutte.__all__:
        assert namespace[name] is getattr(gtutte, name)
    assert len(set(gtutte.__all__)) == len(gtutte.__all__)
