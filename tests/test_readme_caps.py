"""README's table of caps names every module-level ``MAX_*`` constant in
``src/bohrlab`` with its module and current value, and no other name."""

import ast
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "bohrlab")

# | `MAX_NAME` | `module` | 1,234 (...) | ... |
_ROW = re.compile(r"^\| `(MAX_\w+)` \| `(\w+)` \| ([\d,]+)\b")


def _caps_in_code() -> dict[str, tuple[str, int]]:
    caps = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    value = getattr(importlib.import_module(f"bohrlab.{module}"), target.id)
                    caps[target.id] = (module, value)
    return caps


def _caps_in_readme() -> dict[str, tuple[str, int]]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        rows = [_ROW.match(line) for line in fh]
    return {m[1]: (m[2], int(m[3].replace(",", ""))) for m in rows if m}


def test_readme_caps_table_matches_the_code():
    code = _caps_in_code()
    assert len(code) >= 6
    assert _caps_in_readme() == code
