"""What the tests check after code that forks: that no child outlives it.

Import it as `from forks import assert_no_child_left`.
"""

import os

import pytest


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
