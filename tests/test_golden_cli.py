"""Golden CLI transcripts: every command in ``golden/transcripts.json`` must
print the recorded stdout, byte for byte, and exit with the recorded code,
at the default precision and under ``BOHR_PRECISION`` = 30 and 80.  The
file holds the commands, each distinct stdout once, and per precision the
exit code and stdout index of every command.

Each precision replays the whole list in one child process through
``cli.main``, so the environment variable is read as a real run reads it.
After a deliberate change to a report, rewrite the expected outputs with

    python tests/test_golden_cli.py --write

and review the diff of ``golden/transcripts.json``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.join(os.path.dirname(HERE), "src")
TRANSCRIPTS = os.path.join(GOLDEN, "transcripts.json")
PRECISIONS = ("default", "30", "80")

# Runs in the child: replays every argv (stdin) and writes the exit codes,
# stdouts and the modules the process ended with.
_REPLAY = """
import contextlib, io, json, sys
from bohrlab import cli
runs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
json.dump({"runs": runs, "modules": sorted(sys.modules)}, sys.stdout)
"""


def replay(commands: list, precision: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("BOHR_PRECISION", None)
    if precision != "default":
        env["BOHR_PRECISION"] = precision
    out = subprocess.run(
        [sys.executable, "-c", _REPLAY],
        input=json.dumps(commands),
        capture_output=True,
        text=True,
        cwd=GOLDEN,
        env=env,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _load() -> dict:
    with open(TRANSCRIPTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_golden_transcripts(precision):
    golden = _load()
    result = replay(golden["commands"], precision)
    assert "mpmath" not in result["modules"]  # the library computes without it
    got = result["runs"]
    want = golden["transcripts"][precision]
    assert len(got) == len(want) == len(golden["commands"])
    for argv, (code, text), (want_code, k) in zip(golden["commands"], got, want):
        assert (code, text) == (want_code, golden["outputs"][k]), f"bohrlab {' '.join(argv)}"


def _write() -> None:
    golden = _load()
    runs = {p: replay(golden["commands"], p)["runs"] for p in PRECISIONS}
    # each distinct stdout is stored once: most agree across precisions
    outputs = list(dict.fromkeys(text for p in PRECISIONS for _, text in runs[p]))
    index = {text: k for k, text in enumerate(outputs)}
    golden["outputs"] = outputs
    golden["transcripts"] = {p: [[code, index[text]] for code, text in runs[p]] for p in PRECISIONS}
    with open(TRANSCRIPTS, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    _write()
