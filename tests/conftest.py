import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Fail a test that leaves a child process, running or unreaped (a leaked fork)."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"a child process outlived the test ({'running' if pid == 0 else 'unreaped'})")
