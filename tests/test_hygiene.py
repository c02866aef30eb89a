import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names an `import` binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def dead_private_definitions(source: str) -> list:
    """Module-level `_`-prefixed functions and classes that the module never names."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = [(node.lineno, node.name) for node in tree.body
               if isinstance(node, kinds) and node.name.startswith("_") and not node.name.endswith("__")]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in defined if name not in used]


def named_identifiers(source: str) -> set:
    """Every name a module reads, every attribute it takes and every name it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unnamed_public_definitions(source: str, named: set) -> list:
    """Module-level public functions and classes, and public methods of those classes, not in named."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in ast.parse(source).body:
        for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
            if isinstance(d, kinds) and not d.name.startswith("_") and d.name not in named:
                found.append((d.lineno, d.name))
    return found


def environ_reads(source: str) -> set:
    """The names a module reads by os.environ[...], os.environ.get(...) or os.getenv(...)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
            key = node.slice
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.environ.get", "os.getenv") and node.args:
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.add(key.value)
    return names


def trig_uses(source: str) -> list:
    """(line, top-level definition) of each cos or sin a module takes from numpy or math."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ("cos", "sin") and \
                    ast.unparse(node.value) in ("np", "numpy", "math", "cmath"):
                found.append((node.lineno, name))
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "math", "cmath"):
                found += [(node.lineno, name) for alias in node.names if alias.name in ("cos", "sin")]
    return found


def unbounded_matmuls(source: str) -> list:
    """(line, name) of each function that takes a matrix product (@, @=, matmul or dot) and
    whose docstring names neither 2^53 nor 2^63, the bound that keeps its sums exact."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        doc = ast.get_docstring(node) or ""
        if "2^53" in doc or "2^63" in doc:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult) or \
                    isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and \
                    sub.func.attr in ("matmul", "dot"):
                found.append((node.lineno, node.name))
                break
    return found


def test_unbounded_matmuls_detector():
    src = ('import numpy as np\n'
           'def a(x):\n    """Sums stay under 2^53."""\n    return x @ x\n'
           'def b(x):\n    return np.matmul(x, x)\n'
           'def c(x):\n    """No bound."""\n    x @= x\n'
           'def d(x):\n    return x.dot(x) * 2\n'
           'def e(x):\n    return x * x\n'
           'class K:\n    def m(self, x):\n        """Under 2^63."""\n        return np.dot(x, x)\n'
           '    def n(self, x):\n        return np.dot(x, x)\n')
    assert unbounded_matmuls(src) == [(5, "b"), (7, "c"), (10, "d"), (18, "n")]


def test_matmul_kernels_state_their_bound():
    # an integer matrix product is exact only under a bound: int64 sums under 2^63, or float64
    # sums under 2^53; the function that takes it says which, in its docstring
    found = [f"{f.relative_to(ROOT)}:{line}: {name}"
             for f in sorted((ROOT / "src" / "conic_lab").glob("*.py"))
             for line, name in unbounded_matmuls(f.read_text())]
    assert not found, found


def kernel_calls(source: str) -> list:
    """(line, innermost enclosing function or None) of each call of count_sharp or count_smoothed,
    by bare name or as an attribute."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in \
                        ("count_sharp", "count_smoothed"):
                    found.append((child.lineno, name))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else name)

    visit(ast.parse(source), None)
    return sorted(found)


def test_kernel_calls_detector():
    src = ("def count(s):\n    return count_sharp(1) if s else census.count_smoothed(2)\n"
           "def f():\n    return lambda: count_sharp(3)\n"
           "class K:\n    def m(self):\n        def inner():\n            return count_smoothed(4)\n"
           "count_sharp(5)\ng = count_sharp\ncount_sharply(6)\n")
    assert kernel_calls(src) == [(2, "count"), (2, "count"), (4, "f"), (8, "inner"), (9, None)]


def test_count_picks_the_kernel():
    # census.count is the one place that picks count_sharp or count_smoothed
    found = {(f.name, name) for f in sorted((ROOT / "src" / "conic_lab").glob("*.py"))
             for _, name in kernel_calls(f.read_text())}
    assert found == {("census.py", "count")}, found


def counting_division_loops(source: str) -> list:
    """(line, innermost enclosing function or None) of each while loop that counts the factors Y
    of X: its test has X % Y == 0, alone or in an `and`, and its body has X //= Y and a += 1."""
    found = []

    def divisions(test):
        for cond in test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else [test]:
            if isinstance(cond, ast.Compare) and len(cond.ops) == 1 and isinstance(cond.ops[0], ast.Eq) \
                    and ast.unparse(cond.comparators[0]) == "0" and isinstance(cond.left, ast.BinOp) \
                    and isinstance(cond.left.op, ast.Mod):
                yield ast.unparse(cond.left.left), ast.unparse(cond.left.right)

    def counts(loop):
        augs = [n for stmt in loop.body for n in ast.walk(stmt) if isinstance(n, ast.AugAssign)]
        divided = {(ast.unparse(n.target), ast.unparse(n.value)) for n in augs if isinstance(n.op, ast.FloorDiv)}
        counted = any(isinstance(n.op, ast.Add) and ast.unparse(n.value) == "1" for n in augs)
        return counted and any(d in divided for d in divisions(loop.test))

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.While) and counts(child):
                found.append((child.lineno, name))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else name)

    visit(ast.parse(source), None)
    return found


def test_counting_division_loops_detector():
    src = ("def plain(x, p):\n    e = 0\n    while x % p == 0:\n        x //= p\n        e += 1\n    return e\n"
           "def split(k1, k2, p, n):\n    r = 0\n    while r < n and k1 % p == 0 and k2 % p == 0:\n"
           "        k1 //= p\n        k2 //= p\n        r += 1\n    return k1, k2, r\n"
           "def sign(a, m):\n    result = 1\n    while a % 2 == 0:\n        a //= 2\n"
           "        if m % 8 in (3, 5):\n            result = -result\n    return result\n"
           "def squares(t, p):\n    i = 0\n    while t != 1:\n        t = t * t % p\n        i += 1\n    return i\n")
    assert counting_division_loops(src) == [(3, "plain"), (9, "split")]


def test_one_valuation_loop():
    # the powers of p in an integer are counted once, by modcore.valuation; several integers
    # share the valuation of their gcd
    found = [(f.name, name) for f in sorted((ROOT / "src" / "conic_lab").glob("*.py"))
             for _, name in counting_division_loops(f.read_text())]
    assert found == [("modcore.py", "valuation")], found


def test_trig_uses_detector():
    src = ("import numpy as np\nfrom math import sin\ndef table(a):\n    return np.cos(a), math.sin(a)\n"
           "x = numpy.sin(0)\ndef other(a):\n    return a.cos, np.exp(a)\n")
    assert trig_uses(src) == [(2, None), (4, "table"), (4, "table"), (5, None)]


def test_trig_terms_come_from_one_table_builder():
    # every cos and sin the package takes is an entry of modcore.trig_table: one term source
    found = [(f.name, line, name) for f in sorted((ROOT / "src" / "conic_lab").glob("*.py"))
             for line, name in trig_uses(f.read_text())]
    assert found and {(f, name) for f, _, name in found} == {("modcore.py", "trig_table")}, found


def test_unused_imports_detector():
    src = "import os, re\nfrom a.b import c as d, e\nimport x.y\nre.sub; e(x.y)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


def test_named_identifiers_detector():
    src = "import x.y\nfrom a import b as c\ndef f(u):\n    \"\"\"g\"\"\"\n    return h(u).k\n"
    assert named_identifiers(src) == {"y", "b", "h", "u", "k"}


def test_environ_reads_detector():
    src = 'import os\nos.environ.get("A", "1"); os.environ["B"]; os.getenv("C"); os.environ.get(k); d.get("E")\n'
    assert environ_reads(src) == {"A", "B", "C"}


def test_unnamed_public_definitions_detector():
    src = ("def used(): pass\ndef unused(): pass\nclass K:\n    def m(self): pass\n"
           "    def _p(self): pass\n    def __init__(self): pass\ndef _private(): pass\n")
    assert unnamed_public_definitions(src, {"used", "K"}) == [(2, "unused"), (4, "m")]


def test_dead_private_definitions_detector():
    src = ("def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
           "def __getattr__(name): pass\ndef public():\n    def _inner(): pass\n    return _used()\n")
    assert dead_private_definitions(src) == [(2, "_dead"), (3, "_Gone")]


def test_no_unused_imports():
    # the package root's imports are its exports, so it is left out
    files = [f for f in sorted((ROOT / "src" / "conic_lab").glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    found = [f"{f.relative_to(ROOT)}:{line}: {name}"
             for f in files for line, name in unused_imports(f.read_text())]
    assert not found, found


def test_no_dead_private_definitions():
    # a private helper nothing in its module calls is left over from a deletion
    found = [f"{f.relative_to(ROOT)}:{line}: {name}"
             for f in sorted((ROOT / "src" / "conic_lab").glob("*.py"))
             for line, name in dead_private_definitions(f.read_text())]
    assert not found, found


def _unnamed_in_package(named: set) -> list:
    package = sorted((ROOT / "src" / "conic_lab").glob("*.py"))
    named = named | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for f in package:
        named |= named_identifiers(f.read_text())
    return [f"{f.relative_to(ROOT)}:{line}: {name}"
            for f in package for line, name in unnamed_public_definitions(f.read_text(), named)]


def test_no_orphan_public_definitions():
    # a public function, class or method that no code, test or README names is left over from a
    # deletion; a docstring or comment that mentions it does not count
    tests = set()
    for f in sorted((ROOT / "tests").glob("*.py")):
        tests |= named_identifiers(f.read_text())
    found = _unnamed_in_package(tests)
    assert not found, found


def test_no_test_only_public_definitions():
    # public API that only tests call is code the program does not need; gauss_sum_character
    # stays, as acceptance criterion 07 checks the character form of the Gauss sum through it
    found = _unnamed_in_package({"gauss_sum_character"})
    assert not found, found


def test_readme_env_vars_are_read():
    # an environment variable the README documents is one the package reads
    read = set()
    for f in sorted((ROOT / "src" / "conic_lab").glob("*.py")):
        read |= environ_reads(f.read_text())
    documented = set(re.findall(r"\$([A-Z_][A-Z0-9_]*)", (ROOT / "README.md").read_text()))
    assert documented <= read, sorted(documented - read)


def tracer_names(source: str) -> set:
    """The "module.function" strings of the tracer's HOT, PRIVATE, HOOKS (keys) and CLOSED_FORMS."""
    names, kinds = set(), ("HOT", "PRIVATE", "HOOKS", "CLOSED_FORMS")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in kinds for t in node.targets):
            elts = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
            names |= {e.value for e in elts}
    return names


def test_tracer_names_detector():
    src = ('HOT = {"a.b", "c.d"}\nPRIVATE = {"e._f"}\nHOOKS = {"g.h": _hook}\n'
           'CLOSED_FORMS = {"i.j"}\nLAYERS = ("k", "l")\nOTHER = {"m.n": 1}\n')
    assert tracer_names(src) == {"a.b", "c.d", "e._f", "g.h", "i.j"}


# Tracer names that no function of the package answers to, so their calls and counters read 0.
KNOWN_STALE = {
    "census._sqrt_table",
    "census._legendre_table",
    "census.sqrt_count_table",
    "modcore.as_coeffs",
    "modcore.sqrt_all_roots",
    "conic.param_case1",
    "conic.build_case1_family",
    "conic.build_case2_family",
}


def test_tracer_names_resolve():
    # the benchmark's tracer wraps a function of the package by name and skips a name it does
    # not find, so a rename drops that function's per-layer calls and counters silently
    stale = set()
    for qual in tracer_names((ROOT / "perfbench" / "tracing.py").read_text()):
        layer, name = qual.split(".")
        module = importlib.import_module(f"conic_lab.{layer}")
        fn = getattr(module, name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
            stale.add(qual)
    assert stale == KNOWN_STALE, (sorted(stale - KNOWN_STALE), sorted(KNOWN_STALE - stale))
