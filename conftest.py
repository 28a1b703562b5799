"""Anchors pytest's rootdir at the repo root.

With this file present, pytest puts the repo root on ``sys.path``, so
test modules can import each other and the bench helpers as packages
(``from tests.test_elastic_scaling import ...``,
``from benchmarks.conftest import ...``).  Without it, bare ``pytest``
fails to import them.  It registers no options or markers.
"""
