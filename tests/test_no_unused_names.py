"""``src/`` holds no test-only code: every module-level or class-level name
defined in ``src/streammatch`` is read somewhere in ``src/``, ``perfbench/``
or ``scripts/`` outside its own definition.

A read is a loaded name, an attribute, a name imported from a module, or an
identifier inside a string constant (``perfbench/spans.py`` patches by dotted
path).  A load inside an assignment to the same name is no read: a field
that is only ever updated from itself is read by nothing.  Names are
matched by identifier alone, across modules; dunder names are called by
the interpreter and are not checked."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streammatch"
READERS = ("src", "perfbench", "scripts")


def _name(node: ast.AST, ctx: type) -> str | None:
    """The identifier of a Name or Attribute node in context ``ctx``, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ctx):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx):
        return node.attr
    return None


def _reads(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        name = _name(node, ast.Load)
        if name is not None:
            found[name] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(part for part in node.value.split(".") if part.isidentifier())
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            # x.n = max(x.n, m) only updates n: its load of n is no read.
            inner = list(ast.walk(node))
            stored = {_name(part, ast.Store) for part in inner} - {None}
            found.subtract(name for part in inner if (name := _name(part, ast.Load)) in stored)
    return found


def _definitions(body):
    """(name, defining node) of every function, class and assigned name in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _defined_names():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, node in _definitions(tree.body):
            yield path.name, name, node
            if isinstance(node, ast.ClassDef):
                for member, inner in _definitions(node.body):
                    yield path.name, f"{name}.{member}", inner


def test_every_name_defined_in_src_is_read_outside_its_definition():
    reads = Counter()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads += _reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    unread = []
    for module, name, node in _defined_names():
        ident = name.rpartition(".")[2]
        if ident.startswith("__") and ident.endswith("__"):
            continue
        if reads[ident] - _reads(node)[ident] <= 0:
            unread.append(f"{module}: {name}")
    assert not unread, f"defined in src/ but read nowhere outside its definition: {unread}"
