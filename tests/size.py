"""Print the size of each module of a package: lines and code lines.

Usage::

    python tests/size.py [SRC]

SRC is a ``src`` directory (default: the one next to this file).  For
each module of ``SRC/cgsws`` and in total, prints the line count, as
``wc -l`` gives it, and the code-line count: the lines that hold a
token outside docstrings and comments.  A docstring is the string that
opens a module, class or function body; a multi-line token other than a
docstring counts on every line it spans.

Like ``golden.py``, this file is a tool, not a test module.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that the module's, classes' and functions' docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """``(lines, code_lines)`` of one module's source text."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?",
                        default=pathlib.Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    total_lines = total_code = 0
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted((pathlib.Path(args.src) / "cgsws").glob("*.py")):
        lines, code = count(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
