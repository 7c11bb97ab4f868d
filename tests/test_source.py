import ast
from pathlib import Path

import grlcodes

SRC = Path(grlcodes.__file__).parent

# (module, name) imported on purpose though the module never reads it:
# bench/test_bench.py checks that the tracer patches classify.rank
UNUSED_ALLOWED = {("classify", "rank")}


def unused_imports(tree):
    """The names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_every_imported_name_is_used():
    unused = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
              for name in unused_imports(ast.parse(path.read_text()))]
    assert set(unused) == UNUSED_ALLOWED, unused


def imported_modules(tree):
    """The grlcodes modules a module imports, by their names in the
    package (a relative ``from . import x`` names x)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.removeprefix("grlcodes.")
                    for alias in node.names
                    if alias.name.startswith("grlcodes.")}
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0 and not mod.startswith("grlcodes"):
                continue
            mod = mod.removeprefix("grlcodes").lstrip(".")
            out |= {mod} if mod else {alias.name for alias in node.names}
    return out


def test_no_production_module_imports_the_oracles():
    # the brute-force oracles serve the tests; production never reaches them
    importers = [path.stem for path in sorted(SRC.glob("*.py"))
                 if "oracles" in imported_modules(ast.parse(path.read_text()))]
    assert importers == []
    assert imported_modules(ast.parse("import grlcodes.oracles")) == {
        "oracles"}
    assert imported_modules(ast.parse("from . import oracles")) == {"oracles"}
    assert imported_modules(ast.parse(
        "from grlcodes.oracles import enum_min_distance")) == {"oracles"}
