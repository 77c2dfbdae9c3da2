#!/usr/bin/env python
"""Docstring coverage gate for public APIs (stdlib-only).

Walks the given files/directories and reports every public module,
class, function, and method that lacks a docstring.  "Public" means the
name has no leading underscore and is not nested inside a private
scope; ``__init__`` and other dunders are exempt (the class docstring
covers them).  Overloads of abstract one-liners still need at least a
one-line docstring — if a def is worth exporting, it is worth a
sentence.

Usage::

    python tools/check_docstrings.py src/repro/exec src/repro/obs

Exit status is the number of offenders (0 = fully covered), so CI can
use it directly as a gate.  CI additionally runs ``interrogate`` for
the same check with coverage percentages; this script is the no-dependency
version that works in any environment the repo supports.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Defaults checked when no paths are given: the layers whose public
#: APIs carry the documented execution/observability contracts.
DEFAULT_PATHS = (
    "src/repro/check",
    "src/repro/exec",
    "src/repro/explore",
    "src/repro/obs",
    "src/repro/sim/vector.py",
)


def iter_python_files(paths: List[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def missing_docstrings(path: Path) -> List[Tuple[int, str]]:
    """``(line, description)`` for every public def lacking a docstring."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders: List[Tuple[int, str]] = []
    if ast.get_docstring(tree) is None:
        offenders.append((1, "module"))

    def visit(node: ast.AST, prefix: str, public: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_public = public and _is_public(child.name)
                qualname = f"{prefix}{child.name}"
                if child_public and ast.get_docstring(child) is None:
                    kind = "class" if isinstance(child, ast.ClassDef) else "def"
                    offenders.append((child.lineno, f"{kind} {qualname}"))
                # Only classes introduce a documented nesting level a
                # caller can reach; defs inside defs are implementation.
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{qualname}.", child_public)
    visit(tree, "", True)
    return offenders


def main(argv: List[str]) -> int:
    """Check the given paths; print offenders; return their count."""
    paths = argv or list(DEFAULT_PATHS)
    total = 0
    for path in iter_python_files(paths):
        for lineno, description in missing_docstrings(path):
            print(f"{path}:{lineno}: missing docstring: {description}")
            total += 1
    if total:
        print(f"{total} public definition(s) lack docstrings", file=sys.stderr)
    return total


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
