"""tools/ab.py's count of Python-level calls into numpy and scipy: a numpy
wrapper is counted, the compiled function or ufunc it ends in is not, and
the profile hook is removed afterwards, also when the counted call raises.
Its default pass count is sized from the first pair's untimed passes, and
both sides of a pair time that count, or the one --passes gives."""

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


def test_the_default_pass_count_times_about_one_span(ab):
    # SPAN_S over the mean of the two sides' untimed passes, rounded, at least 1
    assert ab.SPAN_S == 1.0
    assert ab.passes_for([0.014, 0.016]) == 67
    assert ab.passes_for([0.25, 0.25]) == 4
    assert ab.passes_for([0.3, 0.25]) == 4
    assert ab.passes_for([2.0, 3.0]) == 1


class _FakeSide:
    """A side whose untimed pass took the seconds its root names."""

    def __init__(self, root, workload, seed):
        self.pass_s, self.asked = root, []

    def read(self):
        return {"ready": True, "pass_s": self.pass_s}

    def ask(self, command):
        self.asked.append(command)
        return {"pass": {"wall_s": 0.1, "cpu_s": 0.1},
                "setup": {"setup_s": 0.0, "faults": 0}}.get(
            command, {"failed": 0, "fingerprint": "", "library_calls": 0})

    def close(self):
        pass


@pytest.mark.parametrize("passes, want", [(None, 4), (2, 2)])
def test_both_sides_time_the_same_sized_or_given_count(ab, monkeypatch, passes, want):
    sides = []

    def side(*args):
        sides.append(_FakeSide(*args))
        return sides[-1]

    monkeypatch.setattr(ab, "Side", side)
    used, out = ab.run_pair({"parent": 0.2, "change": 0.3}, "bsp-fit", 1, passes, first=0)
    assert used == want
    assert [s.asked.count("pass") for s in sides] == [want, want]
    assert [len(out[name]["setups"]) for name in ("parent", "change")] == [want, want]
