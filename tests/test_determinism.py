"""Cross-process determinism: letters hash by identity and strings by a
per-process seed, so any output that leaned on set order would
differ between two interpreter runs.  Every golden CLI case and every
README command runs in two processes with different hash seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import GOLDEN
from test_readme import CLI_ARGVS

SRC = Path(__file__).resolve().parents[1] / "src"

# reads a JSON list of argvs on stdin, runs each through pqt.cli.main in this
# process, and prints [exit code, payload without elapsed_ms] per argv
RUNNER = """
import contextlib, io, json, sys
from pqt.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    payload = json.loads(buf.getvalue())
    payload.pop("elapsed_ms", None)
    out.append([code, payload])
json.dump(out, sys.stdout)
"""


def _run(argvs: list, hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER], input=json.dumps(argvs), capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_cli_outputs_do_not_depend_on_hash_seed():
    argvs = [argv for argv, _, _ in GOLDEN] + CLI_ARGVS
    first, second = _run(argvs, "0"), _run(argvs, "1")
    assert len(first) == len(argvs)
    for argv, a, b in zip(argvs, first, second):
        assert json.dumps(a) == json.dumps(b), argv  # key order included
    # the subprocess sees what the in-process golden test sees
    for (argv, code, text), (got_code, payload) in zip(GOLDEN, first):
        assert (got_code, payload) == (code, json.loads(text)), argv
