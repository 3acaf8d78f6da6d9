"""Print the size measures of the design that ROADMAP.md tracks, as Markdown list lines.

- ``src/`` lines, in total and per module (as ``wc -l`` counts them);
- code lines, the same count without docstrings, comments or blank lines;
- the package's public names, listed, with the length of each submodule's
  ``__all__``, so a moved name shows.

Run it from anywhere: ``python tools/size_report.py``. CI appends its output
to the step summary; it gates nothing.
"""

from __future__ import annotations

import ast
import importlib
import io
import pkgutil
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a code line holds a token that is not a comment, a docstring or layout
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "bidirmr").glob("*.py"))
    }
    lines = {path: source.count("\n") for path, source in sources.items()}
    print(f"src/ lines: {sum(lines.values())}")
    for path, n in lines.items():
        print(f"- {path}: {n}")
    counts = {path: code_lines(source) for path, source in sources.items()}
    print(f"src/ code lines (no docstrings, comments or blank lines): {sum(counts.values())}")
    for path, n in counts.items():
        print(f"- {path}: {n}")

    sys.path.insert(0, str(ROOT / "src"))
    import bidirmr

    # read before the submodules are imported, which binds each on the package
    names = sorted(n for n in dir(bidirmr) if not n.startswith("_"))
    print(f"public names: {len(names)}")
    print("- " + ", ".join(names))
    for info in pkgutil.iter_modules(bidirmr.__path__):
        module = importlib.import_module(f"bidirmr.{info.name}")
        size = len(module.__all__) if hasattr(module, "__all__") else "no __all__"
        print(f"- bidirmr.{info.name}.__all__: {size}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
