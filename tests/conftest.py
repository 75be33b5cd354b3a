import multiprocessing

import pytest

ACCEPTANCE_PREFIX = "tests/test_acceptance.py"


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a ``multiprocessing`` child alive, then stop the
    child, so a leaked worker fails the test that leaked it and no later one."""
    yield
    left = multiprocessing.active_children()
    message = f"children left running: {left}"
    for proc in left:
        proc.kill()
        proc.join(5.0)
    assert left == [], message


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if ACCEPTANCE_PREFIX in nodeid.replace("\\", "/"):
                name = nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(lines):
        terminalreporter.write_line(f"{outcome:6s} {name}")
