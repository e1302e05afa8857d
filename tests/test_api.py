"""The package's surface: every public and every private name has a
caller."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree):
    """(qualified name, bare name) of each public function, method and
    class defined at module level or in a class body."""
    found = []

    def walk(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((prefix + node.name, node.name))
            if isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".")

    walk(tree.body, "")
    return found


def _private_definitions(tree):
    """(qualified name, bare name) of each private function, method and
    class defined at module level or in a class body, and of each private
    module-level constant.  Every method of a private class is private
    too; dunder names are left out."""
    found = []

    def walk(body, prefix, hidden):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif not prefix and isinstance(node, ast.Assign):
                names = [target.id for target in node.targets
                         if isinstance(target, ast.Name)]
            elif not prefix and isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            found.extend((prefix + name, name) for name in names
                         if (hidden or name.startswith("_"))
                         and not name.endswith("__"))
            if isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".",
                     hidden or node.name.startswith("_"))

    walk(tree.body, "", False)
    return found


def _used_names(tree, reexports):
    """Every name read as a Name, an Attribute or an imported name; with
    reexports False the names a `from ... import` brings in are left out."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and reexports:
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_caller():
    """Each public function, method and class under src/motivic/ is used
    somewhere in src/motivic/ or in the non-test modules of perfbench/.

    The imports of the package's __init__.py files are its re-exports, not
    uses, so they are left out.  The check goes by bare name: a dead method
    that shares its name with a live one (FieldElem.is_zero shares it with
    HomogPoly.is_zero) would be missed, but a live name is never flagged.
    """
    defined = []
    used = set()
    for path in sorted((_ROOT / "src" / "motivic").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = ".".join(path.relative_to(_ROOT / "src").with_suffix("").parts)
        defined += [(module + "." + q, name)
                    for q, name in _public_definitions(tree)]
        used |= _used_names(tree, reexports=path.name != "__init__.py")
    for path in sorted((_ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= _used_names(ast.parse(path.read_text(), str(path)),
                                reexports=True)
    assert defined
    unused = [q for q, name in defined if name not in used]
    assert not unused, "public names with no caller: %s" % ", ".join(unused)


def test_every_private_name_has_a_caller():
    """Each private function, method, class and module-level constant under
    src/motivic/, every method of a private class such as _pure._Lanes
    included, is read somewhere in src/motivic/ or in the non-test modules
    of perfbench/.

    Only reads count: the assignment that defines a constant does not, nor
    does an import, so a name that is only imported is still unused.  The
    check goes by bare name, as the public one does."""
    sources = sorted((_ROOT / "src" / "motivic").rglob("*.py"))
    defined = []
    used = set()
    for path in sources + sorted((_ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        if path in sources:
            module = ".".join(
                path.relative_to(_ROOT / "src").with_suffix("").parts)
            defined += [(module + "." + q, name)
                        for q, name in _private_definitions(tree)]
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load))
    assert defined
    unused = [q for q, name in defined if name not in used]
    assert not unused, "private names with no caller: %s" % ", ".join(unused)


def test_only_the_plan_reads_a_chart_or_the_table_limit():
    """_pure._plan is the one reader of a chart and the one choice of a
    counting kernel.  Outside CountQuery, every read of a .chart under
    src/motivic/ is an argument of a _plan call; inside motivic.count only
    _pure._plan and _pure._Lanes name _TABLE_LIMIT, which _pure imports."""
    src = _ROOT / "src" / "motivic"
    stray, limits = [], set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "chart"
                    and isinstance(node.ctx, ast.Load)):
                continue
            owner = parents[node]
            while owner in parents and not isinstance(owner, ast.ClassDef):
                owner = parents[owner]
            if getattr(owner, "name", None) == "CountQuery":
                continue
            call = parents[node]
            func = getattr(call, "func", None)
            if not (isinstance(call, ast.Call) and node in call.args
                    and getattr(func, "attr", getattr(func, "id", None))
                    == "_plan"):
                stray.append("%s:%d" % (path.relative_to(src), node.lineno))
        if path.parent.name != "count":
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if (getattr(node, "id", None) == "_TABLE_LIMIT"
                        or getattr(node, "name", None) == "_TABLE_LIMIT"):
                    limits.add(path.stem + "." + (
                        top.name if isinstance(top, (ast.FunctionDef,
                                                     ast.ClassDef))
                        else type(top).__name__))
    assert not stray, "charts read outside the plan: %s" % ", ".join(stray)
    assert "_pure._plan" in limits
    assert limits <= {"_pure._plan", "_pure._Lanes", "_pure.ImportFrom"}, \
        limits


def test_no_module_reads_the_environment():
    """No environment variable changes a run: no module under src/motivic/
    reads os.environ or calls os.getenv, by attribute or by a `from os
    import`.  Every setting is an option, which the report echoes."""
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted((_ROOT / "src" / "motivic").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found = {alias.name for alias in node.names}
            else:
                continue
            if found & names:
                reads.append("%s:%d" % (path.relative_to(_ROOT), node.lineno))
    assert not reads, "environment reads: %s" % ", ".join(reads)
