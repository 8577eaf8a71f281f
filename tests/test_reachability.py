"""Every function, class and method in ``src/bohrlab`` has a reader.

The roots are the package itself (its CLI commands run through it), the
acceptance criteria in ``tests/test_acceptance.py`` and the benchmark
workloads in ``perfbench/``.  A definition is read when its name occurs as
a ``NAME`` token in one of those files outside the definition's own lines,
so a name in a string (outside an f-string's replacement fields), a
comment or ``__init__``'s export table is no reader, and neither is a
function that only calls itself.  Unit tests are no roots: code that only
they read is deleted, together with its tests.  Dunder methods are called
by Python itself and are exempt.
"""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "bohrlab")

# (module, name) -> why the definition stays without a reader among the roots
EXEMPT = {
    ("scalars", "working_precision"): "the tests switch the working precision with it",
}


def _definitions(source: str):
    """(name, first line, last line) of every function, class and method,
    nested ones included, dunders left out."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno


def _name_lines(source: str) -> dict[str, list[int]]:
    """The lines of every NAME token, keyed by the name.  Before Python
    3.12 an f-string is one STRING token, so the names and attributes in
    its replacement fields are read from its syntax tree."""
    out: dict[str, list[int]] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            out.setdefault(tok.string, []).append(tok.start[0])
        elif tok.type == tokenize.STRING and "f" in tok.string[: tok.string.find(tok.string[-1])].lower():
            for node in ast.walk(ast.parse(tok.string, mode="eval")):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None:
                    out.setdefault(name, []).append(tok.start[0])
    return out


def unread_definitions(defining: dict[str, str], reading: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each definition in ``defining`` whose name occurs
    in no source of ``defining`` or ``reading`` outside its own lines.
    Both map a module name to its source."""
    names = {key: _name_lines(src) for key, src in {**reading, **defining}.items()}
    unread = []
    for module, src in defining.items():
        for name, first, last in _definitions(src):
            read = any(
                key != module or not first <= line <= last
                for key, found in names.items()
                for line in found.get(name, ())
            )
            if not read:
                unread.append((module, name))
    return unread


def _sources(directory: str, prefix: str = "") -> dict[str, str]:
    out = {}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                out[prefix + fname[:-3]] = fh.read()
    return out


def _roots() -> tuple[dict[str, str], dict[str, str]]:
    reading = _sources(os.path.join(ROOT, "perfbench"), "perfbench/")
    with open(os.path.join(ROOT, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        reading["tests/test_acceptance"] = fh.read()
    return _sources(PACKAGE), reading


def test_every_definition_has_a_reader():
    defining, reading = _roots()
    unread = [d for d in unread_definitions(defining, reading) if d not in EXEMPT]
    assert unread == [], f"definitions that no command, criterion or workload reads: {unread}"


def test_every_exemption_is_still_needed():
    defining, reading = _roots()
    assert set(EXEMPT) <= set(unread_definitions(defining, reading))


def test_checker_reports_unread_and_self_calling_functions():
    defining, reading = _roots()
    defining["synthetic"] = (
        "def never_called(x):\n"
        "    return x + 1\n"
        "\n"
        "\n"
        "def only_calls_itself(n):\n"
        "    return 0 if n == 0 else only_calls_itself(n - 1)\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def unread_method(self):\n"
        "        return len(self)  # never_called\n"
        "\n"
        "\n"
        "def read_in_an_f_string():\n"
        "    return 1\n"
        "\n"
        "\n"
        "MESSAGE = f'{read_in_an_f_string()} and never_called'\n"
    )
    found = {name for module, name in unread_definitions(defining, reading) if module == "synthetic"}
    assert found == {"never_called", "only_calls_itself", "Holder", "unread_method"}
