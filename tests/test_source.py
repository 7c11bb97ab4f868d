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


# production names no production code reaches, each kept for a reason
UNREACHED_ALLOWED = {
    "classify.min_distance": "bench-bound: the distance gate's oracle",
    "hull.hull_dim_bruteforce": "bench-bound: the sweep gate's oracle",
    "linalg.Matrix.identity": "bench-bound: bench/test_bench.py's tracer "
                              "check ranks an identity",
    "gf.FieldCtx.from_coeffs": "demo API (demo 01)",
    "gf.FieldCtx.to_coeffs": "demo API (demo 01)",
    "families.diag_powers": "demo API (demo 03)",
    "grl.build_M": "paper identity: the Hermitian structure matrix M",
    "hull.spec_gram": "test reference for the residue path",
    "counting.hull1_count_bound": "left for ROADMAP item 3 to decide "
                                  "(demo 04 prints it)",
}


def unreached_names(trees):
    """The functions and classes defined at the top of a module of
    ``trees`` (module name -> tree), and the methods of its classes but
    the dunders, that no tree references: a function or class by Name,
    Attribute or ``from ... import``, a method by Attribute."""
    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{mod}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{mod}.{node.name}.{item.name}", item.name, True)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))]
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return sorted(qual for qual, name, method in defined
                  if name not in attrs and (method or name not in names))


def test_every_library_name_is_reached():
    # production is every module but the oracles, which serve the tests
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.stem != "oracles"}
    assert unreached_names(trees) == sorted(UNREACHED_ALLOWED)
    probe = ast.parse("def f(): pass\ndef g(): f()\nclass C:\n"
                      "    def m(self): pass\n"
                      "    def __len__(self): 0\n"
                      "    def n(self): m()\n")
    assert unreached_names({"probe": probe}) == [
        "probe.C", "probe.C.m", "probe.C.n", "probe.g"]
