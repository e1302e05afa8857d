"""The package's public surface: every public name has a caller."""

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
    that shares its name with a live one (GaloisContext.frobenius once
    shared it with FieldElem.frobenius) is missed, but a live name is
    never flagged.
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
