"""Count the code lines and statements of each module of ``src/incver``.

A code line is a line that holds a token other than a comment, a docstring
or whitespace; a statement is an AST statement node, docstrings not
counted.  Each argument is a checkout root (default: this repository), so a
parent commit's copy and a change can be counted side by side:

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/code_lines.py /tmp/parent .

It prints one row per module with a code-lines and a statements column per
root, then the totals.  The last line of standard output is one JSON list
with each root's totals.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "incver"
_BLANK = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


def _docstrings(tree: ast.AST) -> list:
    """The docstring expression statements of a module and its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    ]


def count(source: str) -> tuple:
    """(code lines, statements) of one module's source text."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    spans = [(d.lineno, d.end_lineno) for d in docs]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _BLANK:
            continue
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.STRING and any(lo <= first and last <= hi for lo, hi in spans):
            continue
        lines.update(range(first, last + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docs)
    return len(lines), statements


def count_root(root) -> dict:
    """Module name -> (code lines, statements) for each module of the package under ``root``."""
    return {
        path.stem: count(path.read_text(encoding="utf-8"))
        for path in sorted((Path(root) / PACKAGE).glob("*.py"))
    }


def main(argv=None) -> int:
    roots = (sys.argv[1:] if argv is None else argv) or [str(Path(__file__).resolve().parent.parent)]
    counts = [count_root(root) for root in roots]
    modules = sorted(set().union(*counts))
    print(f"{'module':<12}" + "".join(f"{'code':>8}{'stmts':>7}" for _ in roots))
    for name in modules:
        cells = [c.get(name, ("-", "-")) for c in counts]
        print(f"{name:<12}" + "".join(f"{code:>8}{stmts:>7}" for code, stmts in cells))
    totals = [
        {
            "root": root,
            "code_lines": sum(code for code, _ in cs.values()),
            "statements": sum(stmts for _, stmts in cs.values()),
        }
        for root, cs in zip(roots, counts)
    ]
    print(f"{'total':<12}" + "".join(f"{t['code_lines']:>8}{t['statements']:>7}" for t in totals))
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
