"""Print the code lines of each module of src/fedstat and their total: lines
holding a token other than a comment, without blank lines and docstrings.
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


if __name__ == "__main__":
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "fedstat").glob("*.py"))
    counts = {module.name: code_lines(module) for module in modules}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
