"""Print the code lines and public names of each module of src/fedstat, and
their totals.  Code lines hold a token other than a comment, without blank
lines and docstrings; public names are the entries of the module's
``__all__``, read from its syntax tree without importing it (0 without one).
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


def public_names(path: Path) -> int:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(node.value.elts)
    return 0


if __name__ == "__main__":
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "fedstat").glob("*.py"))
    counts = {module.name: (code_lines(module), public_names(module)) for module in modules}
    print("  code  names  module")
    for name, (lines, names) in counts.items():
        print(f"{lines:6d}  {names:5d}  {name}")
    lines, names = (sum(column) for column in zip(*counts.values()))
    print(f"{lines:6d}  {names:5d}  total")
