"""Shared pytest wiring: the acceptance-criteria summary and the
Hypothesis profile.

Tests marked ``@pytest.mark.acceptance(criterion=N, title=...)`` are
aggregated per criterion number and reported as one PASS/FAIL line each at
the end of the run.

Property tests draw the same examples on every run (``derandomize``), have
no per-example time limit, since timings on a loaded host vary, and keep
no example database. Hypothesis also caches the constants it reads from
the source; that cache lives in pytest's cache directory, so a run writes
no ``.hypothesis/`` directory.
"""

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("nhcomp", derandomize=True, deadline=None, database=None)
settings.load_profile("nhcomp")

_results = {}


def pytest_configure(config):
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
    config.addinivalue_line(
        "markers",
        "acceptance(criterion, title): groups a test under one numbered acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("acceptance")
    if mark is None:
        return
    entry = _results.setdefault(
        mark.kwargs["criterion"], {"title": mark.kwargs["title"], "ok": True}
    )
    if report.failed:
        entry["ok"] = False


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        entry = _results[number]
        status = "PASS" if entry["ok"] else "FAIL"
        terminalreporter.write_line(f"criterion {number:>2}: {status}  {entry['title']}")
