import wronskit


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from wronskit import *", namespace)
    for name in wronskit.__all__:
        assert namespace[name] is getattr(wronskit, name)
