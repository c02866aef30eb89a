import ast
import re
from fractions import Fraction
from pathlib import Path

from conic_lab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour():
    # The tour's `from conic_lab import *` is what the package root must export.
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
    sp, cp, count, smallest, pairs, cochrane, approx = values
    assert sp == 3
    assert cp == Fraction(24, 49)
    assert count == 24
    assert smallest == (5, (3, -4, -5))
    assert pairs == 12
    assert abs(cochrane - 1j * 7**1.5) < 1e-9
    assert (approx.a, approx.r) == (1, 2)


FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def test_readme_cli_flags_exist(capsys):
    # Every flag the CLI section names is listed by some subcommand's --help,
    # and every config key it quotes names such a flag.
    known = set()
    for command in cli.HANDLERS:
        assert cli.run([command, "--help"]) == 0
        known |= set(FLAG.findall(capsys.readouterr().out))
    text = README.read_text()
    section = text[text.index("## CLI") : text.index("## Library quick tour")]
    named = set(FLAG.findall(section))
    assert "--sharp" in named and not named - known, sorted(named - known)
    config = re.search(r"A config file is .*?\n\n", section, re.S).group(0)
    keys = {"--" + key.replace("_", "-") for key in re.findall(r'`"([\w-]+)"', config)}
    assert "--sharp" in keys and not keys - known, sorted(keys - known)
