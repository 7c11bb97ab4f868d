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
