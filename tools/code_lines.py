"""Count code lines per module under src/ and in total.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or function).
Blank lines, comment-only lines and docstring lines are not counted.
Next to each module's count it prints its dispatch lines: the code lines
that match `model is ModelId` or `model is not ModelId`, the per-model
branches of the package.  After the per-module counts and the totals, it
lists the five largest top-level functions and classes by the same rule
(decorators not included).  Last, for each package under ROOT, it prints
the number of public names its __init__ imports from its own modules,
and those of them that no module under ROOT reads apart from their
definition.  A name counts as read where code loads it as a bare name or
as an attribute (obj.name), so an attribute of the same name elsewhere
counts too; docstrings, comments and imports do not.  Standard library
only:

    python tools/code_lines.py [ROOT]

ROOT defaults to the repository's src/ directory.
"""

from __future__ import annotations

import ast
import re
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DISPATCH = re.compile(r"model is (not )?ModelId")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _code_line_set(path: Path) -> tuple[set[int], ast.Module]:
    """Numbers of the code lines of one source file, and its syntax tree."""
    source = path.read_text(encoding="utf-8")
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(source)
    return lines - _docstring_lines(tree), tree


def _public_names(init: ast.Module) -> list[str]:
    """Names an __init__ imports from its package's modules, in order."""
    return [alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")]


def _read_names(tree: ast.AST) -> set[str]:
    """Names a syntax tree loads, bare or as attributes."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)})


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    return len(_code_line_set(path)[0])


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = dispatch_total = 0
    definitions = []  # (code lines, name) of each top-level def and class
    read, packages = set(), []  # names read; (package, __init__ tree)
    print("  code dispatch  module")
    for path in sorted(root.rglob("*.py")):
        lines, tree = _code_line_set(path)
        source = path.read_text(encoding="utf-8").splitlines()
        dispatch = sum(bool(_DISPATCH.search(source[n - 1])) for n in lines)
        total += len(lines)
        dispatch_total += dispatch
        definitions += [
            (len(lines.intersection(range(node.lineno, node.end_lineno + 1))),
             node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
        read |= _read_names(tree)
        if path.name == "__init__.py":
            packages.append((".".join(path.parent.relative_to(root).parts),
                             tree))
        print(f"{len(lines):6d} {dispatch:8d}  {path.relative_to(root)}")
    print(f"{total:6d} {dispatch_total:8d}  total")
    print("largest top-level functions and classes:")
    for n, name in sorted(definitions, key=lambda d: -d[0])[:5]:
        print(f"{n:6d}  {name}")
    for package, init in packages:
        names = _public_names(init)
        unread = [name for name in names if name not in read]
        print(f"public names in {package}: {len(names)}")
        print(f"  read by no module: {', '.join(unread) or '(none)'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
