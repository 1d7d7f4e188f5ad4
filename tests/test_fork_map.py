"""doslab.fork_map: item 0 runs here, every other item in a forked child
whose result or exception comes back through a pipe."""

import os
import time

import pytest

from doslab import fork_map
from forks import assert_no_child_left


class NeedsTwo(Exception):
    """Pickles, since it is module-level, but cannot be rebuilt from its
    args: pickle calls NeedsTwo(message) on loading."""

    def __init__(self, left, right):
        super().__init__(f"{left} and {right}")


def test_item_0_runs_here_and_each_other_item_in_its_own_child():
    results = fork_map(lambda item: (item, os.getpid()), range(4))
    assert [item for item, _ in results] == [0, 1, 2, 3]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 4
    assert fork_map(lambda item: item, []) == []
    assert_no_child_left()


def test_the_first_exception_in_item_order_is_raised_and_every_child_killed():
    def fn(item):
        if item == 0:
            raise KeyError("item 0")
        if item == 1:
            time.sleep(60)  # killed, not waited for
        raise ValueError(f"item {item}")

    start = time.monotonic()
    with pytest.raises(KeyError, match="item 0"):
        fork_map(fn, range(3))
    assert time.monotonic() - start < 30
    assert_no_child_left()

    def late(item):
        if item == 1:
            time.sleep(0.2)  # item 2's child raises first in time
        if item:
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match="item 1"):
        fork_map(late, range(3))
    assert_no_child_left()


def test_a_child_that_exits_with_no_result_is_named():
    def fn(item):
        if item == 1:
            os._exit(1)
        return item

    with pytest.raises(RuntimeError, match="item 1 exited with no result"):
        fork_map(fn, range(3))
    assert_no_child_left()


@pytest.mark.parametrize("where", ["local", "module"])
def test_an_exception_pickle_cannot_carry_arrives_as_a_runtime_error(where):
    # a class local to the test cannot be pickled; a module-level one with
    # two required arguments pickles but cannot be unpickled
    class LocalNeedsTwo(Exception):
        def __init__(self, left, right):
            super().__init__(f"{left} and {right}")

    error = {"local": LocalNeedsTwo, "module": NeedsTwo}[where]

    def fn(item):
        if item == 1:
            raise error("left", "right")
        return item

    with pytest.raises(RuntimeError) as info:
        fork_map(fn, range(3))
    assert type(info.value) is RuntimeError
    assert str(info.value) == f"{error.__name__}: left and right"
    assert_no_child_left()
