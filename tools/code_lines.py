"""Print the code lines of each module of ``src/tfilm``.

    python3 tools/code_lines.py [--against REV]

A code line is a line that holds a Python token other than a comment,
and that lies outside a docstring (of the module, a class or a
function); blank lines, comment lines and docstring lines do not count.
A statement written over several lines counts each of them.

``--against REV`` exports ``src/tfilm`` of the git revision REV (``git
archive``, by ``trees.export``) to a temporary directory and prints
REV's count beside this tree's, with the difference, on each line.  The
counts gate nothing: the script exits 0 whatever they are.
"""

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trees  # noqa: E402

PACKAGE = "src/tfilm"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(root):
    """{module file name: code lines} of the package under root."""
    return {path.name: code_lines(path.read_text())
            for path in sorted(Path(root, PACKAGE).glob("*.py"))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV",
                    help="also count the package at git revision REV")
    args = ap.parse_args(argv)
    here = count(trees.ROOT)
    if args.against is None:
        for name, n in here.items():
            print(f"{name:16s} {n:6d}")
        print(f"{'total':16s} {sum(here.values()):6d}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        trees.export(args.against, tmp, PACKAGE)
        there = count(tmp)
    print(f"{'module':16s} {args.against[:12]:>12s} {'this tree':>10s} {'change':>7s}")
    for name in sorted(set(here) | set(there)):
        a, b = there.get(name, 0), here.get(name, 0)
        print(f"{name:16s} {a:12d} {b:10d} {b - a:+7d}")
    a, b = sum(there.values()), sum(here.values())
    print(f"{'total':16s} {a:12d} {b:10d} {b - a:+7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
