"""The README's example configs, run as documented: README.md stays the one
copy of them, and a config it shows always runs."""

import json
import re
from pathlib import Path

import pytest

from shadecraft import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands():
    """{config file name: command} from the `shadecraft <command> <file>.json` lines."""
    return {m.group(2): m.group(1) for m in re.finditer(
        r"^shadecraft (\S+) (\S+\.json)", README.read_text(), flags=re.M)}


def _configs():
    """{file name: config} from the jsonc block; each config follows a
    `// <file name> — ...` line, and `//` comments are stripped."""
    (block,) = re.findall(r"```jsonc\n(.*?)```", README.read_text(), flags=re.S)
    configs = {}
    for chunk in re.split(r"^// ", block, flags=re.M)[1:]:
        name, body = chunk.split(None, 1)
        body = re.sub(r"//[^\n]*", "", body.split("\n", 1)[1])
        configs[name] = json.loads(body)
    return configs


def test_every_command_has_a_config():
    assert set(_commands()) == set(_configs())
    assert len(_commands()) == 5


@pytest.mark.parametrize("name", sorted(_configs()))
def test_readme_config_runs(name, tmp_path):
    path = tmp_path / name
    path.write_text(json.dumps(_configs()[name]))
    out = tmp_path / "out"
    assert cli.main([_commands()[name], str(path), "--out", str(out)]) == 0
    assert out.stat().st_size > 0
