"""Print the code lines, public names and public class attributes of each
module of src/fedstat, and their totals.  Code lines hold a token other than
a comment, without blank lines and docstrings; public names are the entries
of the module's ``__all__`` (0 without one); public attributes are the
``def``s and annotated fields, named without a leading ``_``, of the classes
that the module defines and lists in ``__all__``.  Names and attributes are
read from the module's syntax tree without importing it.
Usage: python tools/code_lines.py"""

import ast
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    docs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as stream:
        spans = [t for t in tokenize.tokenize(stream.readline) if t.type not in LAYOUT]
    return len({n for t in spans for n in range(t.start[0], t.end[0] + 1)} - docs)


def exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def public_attributes(tree: ast.Module, names: list[str]) -> int:
    members = [
        member
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in names
        for member in node.body
    ]
    attributes = [
        m.target.id if isinstance(m, ast.AnnAssign) else m.name
        for m in members
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        or (isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name))
    ]
    return sum(not name.startswith("_") for name in attributes)


def counts(path: Path) -> tuple[int, int, int]:
    tree = ast.parse(path.read_text())
    names = exports(tree)
    return code_lines(path), len(names), public_attributes(tree, names)


if __name__ == "__main__":
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "fedstat").glob("*.py"))
    rows = {module.name: counts(module) for module in modules}
    print("  code  names  attrs  module")
    for name, (lines, names, attrs) in rows.items():
        print(f"{lines:6d}  {names:5d}  {attrs:5d}  {name}")
    lines, names, attrs = (sum(column) for column in zip(*rows.values()))
    print(f"{lines:6d}  {names:5d}  {attrs:5d}  total")
