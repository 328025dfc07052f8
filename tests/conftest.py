import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    pass
else:
    # property tests run numpy solves whose wall time doubles when the
    # machine is busy; a per-example deadline would make them flaky
    settings.register_profile("visim", deadline=None)
    settings.load_profile("visim")

# verdict lines collected by test_acceptance.py, replayed after the run so
# they survive pytest's output capture
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
