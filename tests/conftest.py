import pytest

from grlcodes.appendix import run_appendix


@pytest.fixture(scope="session")
def appendix_results():
    """Every appendix row classified once per test session, by row id.

    Classifying the appendix takes seconds, so the tests that only read
    its reports share one run; treat the results as read-only."""
    results = {r.id: r for r in run_appendix("all")}
    assert len(results) == 33
    return results
