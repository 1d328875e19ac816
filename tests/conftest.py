import pytest
from hypothesis import settings

from resform import milnor

# Property tests draw the same examples on every run, so the suite stays
# deterministic.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None, print_blob=False)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def empty_algebra_cache(monkeypatch):
    """Each test starts from an empty Milnor algebra cache, so counts of
    eliminations and Bezoutian builds, and the Bezoutian determinants the
    cached algebras carry, do not depend on the tests that ran before it."""
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
