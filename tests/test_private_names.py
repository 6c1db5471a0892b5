"""Every top-level private name of the package is used somewhere in the package,
and none crosses a module boundary.

A deletion can leave a helper behind (``_rep_counts`` after its last caller
goes); this catches it.  A name counts as used when any package module loads
it, reads it as an attribute or imports it by name, its own definition aside.

A private name one package module imports from another means two modules
share a decision.  PRIVATE_IMPORTS, the allow-list of such imports with the
reason each stays, is empty: a new one has to be made public, or listed
there with its reason.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icvmd"
MODULES = sorted([*PACKAGE.glob("*.py"), *PACKAGE.glob("nn/*.py")])

# (importing module, imported module and name): why the two modules share it.
PRIVATE_IMPORTS: dict = {}


def private_definitions(tree: ast.Module) -> dict:
    """Top-level private names (dunders aside) defined in a module, by line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {n: line for n, line in defined.items() if n.startswith("_") and not n.endswith("__")}


def referenced_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def orphans(sources: dict) -> list:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    return sorted(
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in used
    )


def test_the_check_finds_an_orphaned_helper():
    sources = {
        "a.py": "_KEPT = 1\n_gone = 2\n\ndef _helper():\n    return _KEPT\n\ndef __getattr__(name):\n    pass\n",
        "b.py": "from a import _helper\n",
    }
    assert orphans(sources) == ["a.py line 2: _gone"]


def test_every_private_name_is_used_in_the_package():
    assert orphans({str(p.relative_to(PACKAGE)): p.read_text() for p in MODULES}) == []


def private_imports(sources: dict) -> list:
    """(importing module, imported module and name) for each private name a
    package module imports by name from another, relative imports resolved;
    modules are keyed by dotted name within the package ("nn.train")."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("icvmd.")):
                parts = module.split(".")[: -node.level] if node.level else []
                target = ".".join([*parts, node.module.removeprefix("icvmd.")] if node.module else parts)
                found.update((module, f"{target}.{alias.name}") for alias in node.names if alias.name.startswith("_"))
    return sorted(found)


def test_the_check_finds_a_private_import():
    sources = {
        "a": "from .b import PUBLIC, _shared\nfrom numpy import _private\n",
        "nn.c": "from ..b import _helper\nfrom .d import _local\n\ndef f():\n    from icvmd.a import _late\n",
    }
    assert private_imports(sources) == [("a", "b._shared"), ("nn.c", "a._late"), ("nn.c", "b._helper"), ("nn.c", "nn.d._local")]


def test_only_the_listed_private_names_cross_a_module_boundary():
    sources = {".".join(p.relative_to(PACKAGE).with_suffix("").parts): p.read_text() for p in MODULES}
    assert private_imports(sources) == sorted(PRIVATE_IMPORTS)
