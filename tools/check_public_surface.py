#!/usr/bin/env python3
"""Lint: examples and docs must import only the public API surface.

Everything user-facing — ``examples/*.py`` and the fenced python blocks
in ``README.md`` / ``docs/*.md`` — may import from ``repro`` or
``repro.api`` only.  Deep module paths (``repro.system.machine``,
``repro.trace.io``, ...) are implementation detail: showing them in
docs re-freezes layouts the facade exists to keep movable.

Also rejects path-first cache constructors: ``ResultCache`` /
``TraceCache`` take a store, never a path, so user-facing material must
show the store-first surface (``ResultCache(store=FsStore(path))`` or
``configure_store("file:///path")``).

And rejects, anywhere in the README, the docs or the examples, the
names removed in 1.3 (see UPGRADING.md): the cache-location settings
and shim modules the store URL replaced, and the batch switch, the
optional accelerator extra and the object-stream engine path that the
trace-picked issue loop replaced.

Exit status 1 lists every violation as ``file:line: import``.

Usage: python tools/check_public_surface.py [repo_root]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ALLOWED = {"repro", "repro.api"}

FENCE = re.compile(r"^```(\w*)\s*$")


def bad_imports(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro") and alias.name not in ALLOWED:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("repro") \
                    and module not in ALLOWED:
                yield node.lineno, f"from {module} import ..."


#: Cache constructors that take a store, never a path.
CACHE_CLASSES = {"ResultCache", "TraceCache"}

#: Names removed in 1.3: the three cache-location environment variables
#: (``REPRO_CACHE``, the one off switch, stays), the two directory flags,
#: the three shim modules, the batch switch (environment variable and
#: ``--[no-]batch`` flag), the ``fast`` install extra and
#: ``execute_spec``'s object-stream switch.  Spelled so that the removed
#: names never appear literally in this file.
REMOVED = re.compile(
    r"\bREPRO_(?:TRACE_CACHE(?:_DIR)?|CACHE_DIR|BATCH)\b"
    r"|--(?:trace|cache)-dir\b"
    r"|(?<![\w-])--(?:no-)?batch\b"
    r"|\.\[fast\]"
    r"|\bpacked\s*=\s*False\b"
    r"|\brepro\.(?:experiments\.engine|system\.simulator|trace\.cache)\b")


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def path_cache_calls(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``ResultCache(path)`` / ``TraceCache(root=...)`` style calls."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in CACHE_CLASSES:
            continue
        if node.args:
            yield (node.lineno,
                   f"{name}(<path>) takes no positional path — "
                   f"use {name}(store=FsStore(path))")
        for keyword in node.keywords:
            if keyword.arg in ("root", "dir", "cache_dir"):
                yield (node.lineno,
                       f"{name}({keyword.arg}=...) takes no path — "
                       f"use {name}(store=FsStore(path))")


def check_python_source(source: str, label: str,
                        line_offset: int = 0) -> List[str]:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # Doc snippets may be deliberately elided (``...``); skip what
        # does not parse rather than failing the build over prose.
        return []
    findings = list(bad_imports(tree)) + list(path_cache_calls(tree))
    return [f"{label}:{line + line_offset}: {what}"
            for line, what in sorted(findings)]


def python_blocks(text: str) -> Iterator[Tuple[int, str]]:
    """(starting line, source) for each fenced ``python`` block."""
    lines = text.splitlines()
    block: List[str] = []
    start = 0
    language = None
    for number, line in enumerate(lines, start=1):
        fence = FENCE.match(line.strip())
        if fence is None:
            if language == "python":
                block.append(line)
            continue
        if language is None:
            language = fence.group(1) or "text"
            start = number
            block = []
        else:
            if language == "python" and block:
                yield start, "\n".join(block)
            language = None
    return


def removed_names(text: str, label: str) -> List[str]:
    """Every mention of a name removed in 1.3, as ``file:line: name``."""
    return [f"{label}:{number}: {match.group(0)} was removed in 1.3 "
            "(see UPGRADING.md)"
            for number, line in enumerate(text.splitlines(), start=1)
            for match in REMOVED.finditer(line)]


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    problems: List[str] = []
    for path in sorted((root / "examples").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        label = str(path.relative_to(root))
        problems += check_python_source(text, label)
        problems += removed_names(text, label)
    doc_files = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for path in doc_files:
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        label = str(path.relative_to(root))
        for start, source in python_blocks(text):
            problems += check_python_source(source, label, line_offset=start)
        problems += removed_names(text, label)
    if problems:
        print("public-surface violations (import only repro / repro.api, "
              "no names removed in 1.3):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("public surface clean: examples and docs import only repro/repro.api")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
