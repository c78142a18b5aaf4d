import sys
import time

import pytest

from agentchain import crypto

SESSION_T0 = time.monotonic()
SUITE_BUDGET_SECONDS = 300.0

# filled by the acceptance tests, printed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def session_elapsed() -> float:
    return time.monotonic() - SESSION_T0


def pytest_collection_modifyitems(session, config, items):
    # acceptance flows go last so their budget check sees the whole suite
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    terminalreporter.write_line(
        f"suite wall time: {session_elapsed():.1f}s (budget {SUITE_BUDGET_SECONDS:.0f}s)"
    )


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    if session_elapsed() > SUITE_BUDGET_SECONDS and session.exitstatus == 0:
        session.exitstatus = 1
        print(f"\nFAIL: suite exceeded {SUITE_BUDGET_SECONDS:.0f}s budget")


@pytest.fixture
def verify_calls(monkeypatch):
    """Arguments of every crypto.verify call, through whichever module's
    binding it is made (``from .crypto import verify`` binds it in several)."""
    calls: list[tuple] = []
    real = crypto.verify

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "agentchain" or name.startswith("agentchain.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counted)
    return calls
