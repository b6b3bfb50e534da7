"""README examples: the CLI block and the library quick start run as written."""

import json
import re
import shlex
from pathlib import Path

import pqt.cli
from pqt.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)
# the sh block made only of pqt commands; the install block runs pip and pytest
(CLI_BLOCK,) = [body for lang, body in BLOCKS if lang == "sh" and body.startswith("pqt ")]
CLI_ARGVS = [shlex.split(line.partition("#")[0])[1:] for line in CLI_BLOCK.splitlines()]


def test_readme_cli_examples(capsys):
    for line, argv in zip(CLI_BLOCK.splitlines(), CLI_ARGVS):
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        # the one documented infeasible search answers with exit 1
        assert code == (1 if argv[0] == "inv-search" else 0), line
        comment = line.partition("#")[2].strip()
        if comment.startswith("{"):
            assert payload == json.loads(comment), line
        elif comment:
            result = payload["result"]
            assert comment == result or comment.startswith(result + " "), line


def test_readme_library_quick_start():
    (body,) = [body for lang, body in BLOCKS if lang == "python"]
    scope: dict = {}
    exec(body, scope)
    assert len(scope["image"].terms) == 4  # "four terms"
    assert scope["x"] == scope["delta"](scope["SINF"], (scope["t"](1), scope["t"](2)))  # "t1 t2 again"
    assert scope["outside"] is None
    assert not scope["result"].found and scope["result"].rank_augmented > scope["result"].rank  # "infeasible"
    a, left, right = scope["a"], scope["left"], scope["right"]
    eye, o = pqt.ElementMatrix.identity(2, pqt.BCS), pqt.zero(pqt.BCS)
    assert left.found and left.solution == pqt.ElementMatrix([[scope["dp"], o], [o, pqt.unit(pqt.BCS)]])  # "diag(p, e)"
    assert pqt.mat_mul(left.solution, a) == eye and pqt.mat_mul(a, left.solution) != eye  # "X A = I but A X != I"
    assert not right.found and right.rank_augmented > right.rank  # "infeasible"


def test_readme_grammar_matches_the_cli_docstring():
    def rules(text):
        return [line.strip() for line in text.splitlines() if ":=" in line]

    section = README.split("### Expression grammar", 1)[1].split("\n#", 1)[0]
    assert rules(section) == rules(pqt.cli.__doc__) and len(rules(section)) == 5
