import ast
import hashlib
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
    for command in cli.SUBCOMMANDS:
        assert cli.run([command, "--help"]) == 0
        known |= set(FLAG.findall(capsys.readouterr().out))
    text = README.read_text()
    section = text[text.index("## CLI") : text.index("## Library quick tour")]
    named = set(FLAG.findall(section))
    assert "--sharp" in named and not named - known, sorted(named - known)
    config = re.search(r"A config file is .*?\n\n", section, re.S).group(0)
    keys = {"--" + key.replace("_", "-") for key in re.findall(r'`"([\w-]+)"', config)}
    assert "--sharp" in keys and not keys - known, sorted(keys - known)


# SHA-256 of the stdout of each README example, byte for byte
EXAMPLES = {
    "conic-lab count --p 7 --n 2 --coeffs 1,1,-1 --N 5 --sharp":
        "cad704b0e0463305cc21ffb06b344ed6d1a2f5f3f58c60cded95b39592b4e2a4",
    "conic-lab scan --p 7 --n 3..6 --theta 0.62 --coeffs 1,1,-1":
        "5bac25c1ac365a081addfd7a4eb425d89afe248d7abb76d5e34bf4471cbd7148",
    "conic-lab smallest --p 7 --n 2 --coeffs 1,1,-1":
        "1a47c39e44c63cc1772599e3bc98cc2860524e3d5656f7a41f139ac83b7e8fed",
    "conic-lab param-check --p 7 --n 3 --coeffs 1,1,-1":
        "9039be120840aaa1b819a62ba607bb7adab9a003342ea68a06a22aac1a4d257a",
    "conic-lab expsum-check --p 7 --n 3 --count 50 --seed 1":
        "64dc86b6ac9bde4b24f32859f9522c3e03ce98f06ca4dc24ec864336de5fd55e",
    "conic-lab dioph --mode reduce --b1 22 --b2 1 --b3 1 --q 49 --Q 7":
        "0133d968e1a20e40b8d07efe5fac09401170712c7323b98c5057f556a3ba1471",
    "conic-lab selftest":
        "41f1845d75451ab9274f44af4094a475e1d96e71bcf4b5e966e867f791efe4cc",
}


def test_readme_cli_examples_pinned(capsys):
    # the README's conic-lab lines, run through cli.run: exit 0, empty stderr, pinned stdout
    lines = [line for line in README.read_text().splitlines() if line.startswith("conic-lab ")]
    assert lines == list(EXAMPLES)
    for line, digest in EXAMPLES.items():
        assert cli.run(line.split()[1:]) == 0, line
        out = capsys.readouterr()
        assert out.err == "" and hashlib.sha256(out.out.encode()).hexdigest() == digest, line
