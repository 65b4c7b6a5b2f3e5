"""tools/fingerprint.py on a small stand-in checkout: every line is printed,
an operation that raises keeps its hash of the exception name, and the exit
status says whether any operation raised.

The stand-in has a one-function `shadecraft.cli`, one workload and one
README config, so that the script runs in a fresh process in well under a
second. Its operations raise only through numpy's division warning, which
`-W error::RuntimeWarning` turns into an exception, as in CI.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

CLI = '''
from pathlib import Path


def main(argv):
    Path(argv[3]).write_text(Path(argv[1]).read_text())
    return 0
'''

WORKLOADS = '''
import numpy as np


class Op:
    def __init__(self, kind, call):
        self.kind, self.call = kind, call


class Workload:
    name = "w"

    def setup(self, seed):
        return np.float64(seed)

    def ops(self, state, seed):
        return [Op("half", lambda: state / 2.0), Op("ratio", lambda: state / DIVISOR)]


DIVISOR = {divisor}
WORKLOADS = {{"w": Workload()}}
'''

README = '''shadecraft simulate a.json

```jsonc
// a.json — a config
{"rounds": 1}
```
'''


def _checkout(root, divisor):
    (root / "src" / "shadecraft").mkdir(parents=True)
    (root / "src" / "shadecraft" / "__init__.py").write_text("")
    (root / "src" / "shadecraft" / "cli.py").write_text(CLI)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS.format(divisor=divisor))
    (root / "README.md").write_text(README)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(TOOL), str(root)],
        capture_output=True, text=True, timeout=60)


def _digest(*parts):
    h = hashlib.sha256()
    for kind, data in parts:
        h.update(kind + b"\0" + data)
    return h.hexdigest()


HALF = (b"half", np.float64(0.5).tobytes())


def test_clean_checkout_exits_zero(tmp_path):
    run = _checkout(tmp_path, "np.float64(4.0)")
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    expected = _digest(HALF, (b"ratio", np.float64(0.25).tobytes()))
    assert run.stdout.splitlines()[0] == f"workload w: {expected}"


def test_an_operation_that_raises_fails_the_run_after_every_line(tmp_path):
    run = _checkout(tmp_path, "np.float64(0.0)")
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    # the raising operation still hashes its exception name, as tools/ab.py compares it
    expected = _digest(HALF, (b"ratio", b"RuntimeWarning"))
    assert lines[0] == f"workload w: {expected}"
    assert lines[1].startswith("config simulate a.json: exit 0 out ")
    assert len(lines) == 2
    assert "w ratio raised RuntimeWarning" in run.stderr
    assert run.stderr.splitlines()[-1] == "1 operation(s) raised: w ratio"
