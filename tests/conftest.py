"""A watchdog on every test: a deadlocked worker ring or ack fails with
every thread's stack dumped instead of hanging the suite."""

import faulthandler
import os
import sys

import pytest

#: Seconds one test may run before the process dumps its stacks and
#: exits. A constant: no test comes near it.
HANG_SECONDS = 300

#: The terminal's stderr, duplicated before output capture begins (a
#: dump written to the captured stream would die with the process).
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _dump_stacks_if_hung(request):
    faulthandler.dump_traceback_later(
        HANG_SECONDS, exit=True, file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
