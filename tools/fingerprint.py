"""Fingerprint a checkout's numbers: one sha256 per benchmark workload and per
README config, so that two checkouts can be compared for byte identity.

    python tools/fingerprint.py <checkout>

For each workload in <checkout>/perfbench/workloads.py, the operations of
one pass at seed 1 are run in order and every number they return is hashed
as float64 bytes (an operation that raises hashes its exception type and is
named on stderr). For each example config in <checkout>/README.md, its
command is run through `shadecraft.cli.main` and the output file and stdout
are hashed. Nothing in the checkout is written; outputs go to a temporary
directory. Every line is printed; the exit status is then 1 if any operation
raised, else 0.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 1


def _numbers(value):
    """Every number in a result, flattened in a fixed order."""
    if dataclasses.is_dataclass(value):
        return _numbers([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, (list, tuple)):
        parts = [_numbers(v) for v in value]
        return np.concatenate(parts) if parts else np.zeros(0)
    if value is None:
        return np.zeros(0)
    return np.asarray(value, dtype=float).ravel()


def _workload_hash(workload, raised=None):
    """The workload's sha256; each operation that raises is named on stderr
    and, when `raised` is a list, appended to it."""
    state = workload.setup(SEED)
    digest = hashlib.sha256()
    for op in workload.ops(state, SEED):
        try:
            data = _numbers(op.call()).tobytes()
        except Exception as exc:  # a refusal is part of the fingerprint
            print(f"{workload.name} {op.kind} raised {exc!r}", file=sys.stderr)
            if raised is not None:
                raised.append(f"{workload.name} {op.kind}")
            data = type(exc).__name__.encode()
        digest.update(op.kind.encode() + b"\0" + data)
    return digest.hexdigest()


def _readme_configs(readme):
    """[(command, file name, config)] from the README's `shadecraft <command>
    <file>.json` lines and its jsonc block of `// <file> — ...` configs."""
    text = readme.read_text()
    commands = {m.group(2): m.group(1)
                for m in re.finditer(r"^shadecraft (\S+) (\S+\.json)", text, flags=re.M)}
    (block,) = re.findall(r"```jsonc\n(.*?)```", text, flags=re.S)
    out = []
    for chunk in re.split(r"^// ", block, flags=re.M)[1:]:
        name, body = chunk.split(None, 1)
        body = re.sub(r"//[^\n]*", "", body.split("\n", 1)[1])
        out.append((commands[name], name, json.loads(body)))
    return out


def _config_hashes(readme, cli):
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, cfg in _readme_configs(readme):
            path, out = Path(tmp) / name, Path(tmp) / (name + ".out")
            path.write_text(json.dumps(cfg))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, str(path), "--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
            yield (f"{command} {name}", code, hashlib.sha256(data).hexdigest(),
                   hashlib.sha256(stdout.getvalue().encode()).hexdigest())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: fingerprint.py <checkout>")
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from shadecraft import cli
    from workloads import WORKLOADS
    if Path(cli.__file__).resolve().parent != root / "src" / "shadecraft":
        raise SystemExit(f"shadecraft was imported from outside {root}")

    raised = []
    for name, workload in WORKLOADS.items():
        print(f"workload {name}: {_workload_hash(workload, raised)}")
    for label, code, out_hash, stdout_hash in _config_hashes(root / "README.md", cli):
        print(f"config {label}: exit {code} out {out_hash} stdout {stdout_hash}")
    if raised:  # exit status 1, with the message on stderr
        raise SystemExit(f"{len(raised)} operation(s) raised: {', '.join(raised)}")


if __name__ == "__main__":
    main()
