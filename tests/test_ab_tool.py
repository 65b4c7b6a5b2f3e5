"""tools/ab.py's count of Python-level calls into numpy and scipy: a numpy
wrapper is counted, the compiled function or ufunc it ends in is not, and
the profile hook is removed afterwards, also when the counted call raises."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from shadecraft import dist

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrappers_are_counted_and_compiled_calls_are_not(ab):
    x = np.linspace(-1.0, 2.0, 7)
    assert ab.library_calls(lambda: np.clip(x, 0.0, 1.0)) > 0
    assert ab.library_calls(lambda: np.zeros_like(x)) > 0
    assert ab.library_calls(lambda: dist._clip(x, 0.0, 1.0)) == 0
    assert ab.library_calls(lambda: np.zeros(x.shape)) == 0
    assert ab.library_calls(lambda: sum(range(10))) == 0


def test_counts_are_deterministic(ab):
    x = np.linspace(-1.0, 2.0, 7)

    def work():
        for _ in range(5):
            np.clip(x, 0.0, 1.0)

    assert ab.library_calls(work) == 5 * ab.library_calls(lambda: np.clip(x, 0.0, 1.0))


def test_the_hook_is_removed_after_a_raise(ab):
    def fail():
        np.zeros_like(np.ones(3))
        raise ValueError("stop")

    with pytest.raises(ValueError):
        ab.library_calls(fail)
    assert sys.getprofile() is None
