import pytest

from resform import milnor


@pytest.fixture(autouse=True)
def empty_algebra_cache(monkeypatch):
    """Each test starts from an empty Milnor algebra cache, so counts of
    eliminations and Bezoutian builds, and the Gram determinants the cached
    algebras carry, do not depend on the tests that ran before it."""
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
