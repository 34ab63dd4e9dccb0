"""Prints one terminal line per acceptance criterion as it settles.

Also hands the checkout's ``src`` to the subprocesses some tests start,
matching the ``pythonpath`` setting that pytest applies to this process.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


class _AcceptanceLines:
    def __init__(self, terminal):
        self._terminal = terminal

    def pytest_runtest_logreport(self, report):
        if report.when != "call" or "test_acceptance" not in report.nodeid:
            return
        name = report.nodeid.rsplit("::", 1)[-1]
        word = "PASS" if report.passed else "FAIL"
        self._terminal.write_line(f"[{word}] {name}")


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    terminal = config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        config.pluginmanager.register(_AcceptanceLines(terminal), "acceptance-lines")
