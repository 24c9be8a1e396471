"""Source hygiene checks on the library, with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "linsep").glob("*.py"))
# What may keep a public name or an option alive: the library, the demos, the
# benchmark and the acceptance tests, which stand for the paper's claims.
USERS = [
    *SOURCES,
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads or re-exports."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Quoted forward references and ``__all__`` entries count as uses.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _referenced(trees) -> set[str]:
    """Names that a ``Name`` or ``Attribute`` node reads; strings do not count."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _unreferenced_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Underscore-prefixed functions, classes and methods no module names."""
    used = _referenced(trees.values())
    return [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n")
    assert _unused_imports(tree) == ["os (line 1)", "comb (line 2)"]


def test_every_private_name_is_referenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _unreferenced_private_names(trees) == []


def test_unreferenced_private_name_is_reported():
    trees = {
        "a": ast.parse("def _kept():\n    pass\n\nclass _Gone:\n    def _used(self):\n        pass\n"),
        "b": ast.parse("import a\na._kept()\nx._used()\n\ndef __dunder__():\n    pass\n"),
    }
    assert _unreferenced_private_names(trees) == ["a._Gone (line 4)"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(tree: ast.Module):
    """(class name or None, node) of every public module-level function and
    class, and of every public method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield None, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        yield node.name, item


def _qualified(module: str, owner: str | None, node: ast.AST) -> str:
    return ".".join(filter(None, (module, owner, node.name))) + f" (line {node.lineno})"


def _test_only_public_names(trees: dict[str, ast.Module], users) -> list[str]:
    """Public functions, classes, methods and properties no user's code names.

    A class that no user names is reported once, not with its members.
    """
    used = _referenced(users)
    return [
        _qualified(module, owner, node)
        for module, tree in trees.items()
        for owner, node in _public_defs(tree)
        if node.name not in used and (owner is None or owner in used)
    ]


def test_every_public_name_has_a_user_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    users = [ast.parse(path.read_text()) for path in USERS]
    assert _test_only_public_names(trees, users) == []


def test_public_name_only_tests_use_is_reported():
    trees = {
        "field": ast.parse(
            "def used():\n    pass\n\ndef tested():\n    pass\n\n"
            "class Gone:\n    def method(self):\n        pass\n\ndef _private():\n    pass\n"
        ),
    }
    users = [
        trees["field"],
        ast.parse("import field\nfield.used()\nTRACED = ('tested', 'Gone')\n"),
    ]
    assert _test_only_public_names(trees, users) == [
        "field.tested (line 4)", "field.Gone (line 7)",
    ]


def test_public_method_only_tests_use_is_reported():
    trees = {
        "assignment": ast.parse(
            "class Assignment:\n"
            "    def holders(self, k):\n        pass\n\n"
            "    def replication(self, k):\n        return len(self.holders(k))\n\n"
            "    @property\n    def width(self):\n        pass\n\n"
            "    @property\n    def load(self):\n        pass\n\n"
            "    def _private(self):\n        pass\n"
        ),
    }
    users = [
        trees["assignment"],
        ast.parse("from assignment import Assignment\nAssignment().width\n"),
    ]
    assert _test_only_public_names(trees, users) == [
        "assignment.Assignment.replication (line 5)", "assignment.Assignment.load (line 13)",
    ]


def _calls(users) -> dict[str, list[ast.Call]]:
    """Every call in the users, by the name or attribute it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for name in _named(node.func):
                    calls.setdefault(name, []).append(node)
    return calls


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """Each parameter with a default, with the index of the positional
    argument that reaches it in a call (None: keyword-only)."""
    bound = method and not any(_named(d) == ["staticmethod"] for d in fn.decorator_list)
    positional = [*fn.args.posonlyargs, *fn.args.args][int(bound):]
    first = len(positional) - len(fn.args.defaults)
    return [(a.arg, i) for i, a in enumerate(positional) if i >= first] + [
        (a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
    ]


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether a call passes ``param``; ``*args`` or ``**kwargs`` may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg in (None, param) for k in call.keywords)


def _options_no_user_sets(trees: dict[str, ast.Module], users) -> list[str]:
    """Defaulted parameters of public functions and methods that no call passes.

    Calls match by the name they call, so a parameter that some call of
    another function of the same name passes counts as set.
    """
    calls = _calls(users)
    return [
        f"{_qualified(module, owner, node)}: {param}"
        for module, tree in trees.items()
        for owner, node in _public_defs(tree)
        if isinstance(node, FUNCTIONS)
        for param, position in _defaulted(node, owner is not None)
        if not any(_passes(call, param, position) for call in calls.get(node.name, ()))
    ]


def test_every_option_is_set_by_a_user_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    users = [ast.parse(path.read_text()) for path in USERS]
    assert _options_no_user_sets(trees, users) == []


def test_option_only_tests_set_is_reported():
    trees = {
        "codec": ast.parse(
            "def verify(scheme, mode='all', seed=0, cap=10, *, strict=False, tries=3):\n"
            "    pass\n\n"
            "class Scheme:\n"
            "    def encoder(self, n, check=True):\n        pass\n\n"
            "    @staticmethod\n    def make(k, q=7):\n        pass\n\n"
            "def _private(x=1):\n    pass\n\n"
            "def build(k, seed=0):\n    pass\n"
        ),
    }
    users = [
        trees["codec"],
        ast.parse(
            "import codec\ncodec.verify(s, 'some', tries=2)\n"
            "s.encoder(1)\nScheme.make(3, 5)\nbuild(3, **options)\n"
        ),
    ]
    assert _options_no_user_sets(trees, users) == [
        "codec.verify (line 1): seed", "codec.verify (line 1): cap",
        "codec.verify (line 1): strict", "codec.Scheme.encoder (line 5): check",
    ]


# The regime constants; only the builder, which picks the regime, and the
# scheme file format, which stores it, may name them.
REGIME_CONSTANTS = {"SMALL", "MIDDLE", "LARGE", "GROUPED_REGIME"}
REGIME_MODULES = {"builder", "serialize"}


def _named(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def _regime_dispatch_outside_builder(trees: dict[str, ast.Module]) -> list[str]:
    """Regime constants named by a module other than ``REGIME_MODULES``."""
    return [
        f"{module}.{name} (line {node.lineno})"
        for module, tree in trees.items()
        if module not in REGIME_MODULES
        for node in ast.walk(tree)
        for name in _named(node)
        if name in REGIME_CONSTANTS
    ]


def test_only_the_builder_and_the_file_format_name_a_regime():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _regime_dispatch_outside_builder(trees) == []


def test_regime_named_outside_the_builder_is_reported():
    trees = {
        "builder": ast.parse("SMALL = 'small'\n"),
        "codec": ast.parse("from .builder import SMALL\nif x == bl.LARGE:\n    pass\n"),
        "cli": ast.parse("small = 'small'\n"),
    }
    assert _regime_dispatch_outside_builder(trees) == [
        "codec.SMALL (line 1)", "codec.LARGE (line 2)",
    ]


# Every exact product goes through the one kernel that keeps it exact.
PRODUCT_NAMES = {"matmul", "dot", "tensordot", "einsum"}


def _products_outside_the_kernel(trees: dict[str, ast.Module]) -> list[str]:
    """``@`` and numpy product calls outside ``field._mul_batch``, by line."""
    kernel = {
        id(inner)
        for module, tree in trees.items()
        if module == "field"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_mul_batch"
        for inner in ast.walk(node)
    }
    return [
        f"{module} (line {line})"
        for module, tree in trees.items()
        for line in sorted(
            node.lineno
            for node in ast.walk(tree)
            if id(node) not in kernel
            and (
                isinstance(getattr(node, "op", None), ast.MatMult)
                or any(name in PRODUCT_NAMES for name in _named(node))
            )
        )
    ]


def test_only_the_product_kernel_multiplies_matrices():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _products_outside_the_kernel(trees) == []


def test_product_outside_the_kernel_is_reported():
    trees = {
        "field": ast.parse(
            "def _mul_batch(a, b):\n    return a @ b\n\ndef other(a, b):\n    return a @ b\n"
        ),
        "codec": ast.parse(
            "from numpy import dot\nx = np.matmul(a, b)\nx @= b\ny = a.dot(b)\n"
        ),
    }
    assert _products_outside_the_kernel(trees) == [
        "field (line 5)", "codec (line 1)", "codec (line 2)", "codec (line 3)", "codec (line 4)",
    ]


# Only ``cli.main`` turns an error into an exit code; a command raises.
ERROR_CODES = {"IO_ERROR", "USAGE_ERROR"}


def _error_codes_outside_main(trees: dict[str, ast.Module]) -> list[str]:
    """Reads of ``ERROR_CODES`` outside ``cli.main``, by module and line."""
    main = {
        id(inner)
        for module, tree in trees.items()
        if module == "cli"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
        for inner in ast.walk(node)
    }
    return [
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for line, name in sorted(
            (node.lineno, name)
            for node in ast.walk(tree)
            if id(node) not in main and not isinstance(getattr(node, "ctx", None), ast.Store)
            for name in _named(node)
            if name in ERROR_CODES
        )
    ]


def test_only_the_cli_entry_point_reports_an_error():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _error_codes_outside_main(trees) == []


def test_error_reported_outside_the_entry_point_is_reported():
    trees = {
        "cli": ast.parse(
            "USAGE_ERROR, IO_ERROR = 2, 3\n\ndef cmd(args):\n    return IO_ERROR\n\n"
            "def main():\n    return USAGE_ERROR\n"
        ),
        "codec": ast.parse("from .cli import USAGE_ERROR\nx = cli.IO_ERROR\n"),
    }
    assert _error_codes_outside_main(trees) == [
        "cli.IO_ERROR (line 4)", "codec.USAGE_ERROR (line 1)", "codec.IO_ERROR (line 2)",
    ]


# The elimination and its chunk walk stay inside ``field``; other modules
# call the batched kernels built on them.
ELIMINATION_NAMES = {"_eliminate", "_rref_chunk", "_chunks", "_by_chunk"}


def _named_outside(trees: dict[str, ast.Module], names, modules) -> list[str]:
    """``names`` named by a module outside ``modules``, by module and line."""
    return [
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        if module not in modules
        for line, name in sorted(
            (node.lineno, name)
            for node in ast.walk(tree)
            for name in _named(node)
            if name in names
        )
    ]


def test_only_the_field_eliminates():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _named_outside(trees, ELIMINATION_NAMES, {"field"}) == []


def test_elimination_outside_the_field_is_reported():
    trees = {
        "field": ast.parse("def _by_chunk(a, q, step):\n    return _eliminate(a, q)\n"),
        "codec": ast.parse(
            "from .field import _rref_chunk\nx = fl._by_chunk(a, q, f)\n"
            "y = fl._rank_batch(a, q)\nfor c in fl._chunks(a, q):\n    fl._eliminate(c, q)\n"
        ),
    }
    assert _named_outside(trees, ELIMINATION_NAMES, {"field"}) == [
        "codec._rref_chunk (line 1)", "codec._by_chunk (line 2)",
        "codec._chunks (line 4)", "codec._eliminate (line 5)",
    ]


# The builder gathers a worker's missed columns from ``cyclic_holds``, the one
# statement of the cyclic rule; only the assignment, which defines the cyclic
# placement, and the two boundaries that hand one to the builder (the CLI's
# ``--assignment cyclic`` and a loaded scheme file) build a cyclic assignment.
PLACEMENT_NAMES = {"cyclic_assignment"}
PLACEMENT_MODULES = {"assignment", "cli", "serialize"}


def test_only_the_placement_boundaries_name_cyclic_assignment():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _named_outside(trees, PLACEMENT_NAMES, PLACEMENT_MODULES) == []


def test_cyclic_assignment_named_outside_the_boundaries_is_reported():
    trees = {
        "assignment": ast.parse("def cyclic_assignment(K, N, N_r):\n    pass\n"),
        "serialize": ast.parse("from .assignment import cyclic_assignment\n"),
        "builder": ast.parse(
            "from .assignment import cyclic_assignment, general_assignment\n"
            "a = general_assignment(6, 3, 2)\nb = asg.cyclic_assignment(3, 3, 2)\n"
        ),
    }
    assert _named_outside(trees, PLACEMENT_NAMES, PLACEMENT_MODULES) == [
        "builder.cyclic_assignment (line 1)", "builder.cyclic_assignment (line 3)",
    ]
