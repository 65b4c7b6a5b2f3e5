"""The README's example configs and library tour, run as documented: README.md
stays the one copy of them, a config it shows always runs, and the tour's
commented values hold."""

import ast
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
    assert len(_commands()) == 7


@pytest.mark.parametrize("name", sorted(_configs()))
def test_readme_config_runs(name, tmp_path):
    path = tmp_path / name
    path.write_text(json.dumps(_configs()[name]))
    out = tmp_path / "out"
    assert cli.main([_commands()[name], str(path), "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_library_tour_values():
    """Runs the ```python block and checks the value of each bare expression:
    psi(0.75) and the monopoly price 0.5, the truthful payoff 11/192, and the
    Monte Carlo per-bidder payoffs and revenue within 3 SE of 1/12 and 1/2."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    psi, reserve, truthful, per_bidder, revenue = values
    assert psi == 0.5 and reserve == 0.5
    assert truthful == pytest.approx(11 / 192, abs=1e-12)
    est = namespace["est"]
    assert per_bidder == est.per_bidder and len(per_bidder) == 3
    for v, se in zip(per_bidder, est.per_bidder_se):
        assert abs(v - 1 / 12) < 3 * se
    assert revenue == est.seller_revenue
    assert abs(revenue - 1 / 2) < 3 * est.seller_revenue_se
