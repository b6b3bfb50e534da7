"""CLI: grammar round-trips, JSON-on-every-path, exit-code contract."""

import json
import random

import pytest

from pqt import words as W
from pqt.algebra import delta
from pqt.cli import main, parse_element, parse_word
from pqt.embedding import Embedding
from pqt.errors import ExprSyntaxError
from oracles import patch_word_images, random_element

B = W.BCElement
T = W.t


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_parse_pinned_examples():
    from pqt.algebra import delta, unit
    from fractions import Fraction

    assert parse_element("p q", W.BCS) == unit(W.BCS)
    expected = delta(W.SINF, (T(1),)).scale(Fraction(1, 2)) + delta(W.SINF, (T(2, True),))
    assert parse_element("1/2*t1 + t2*", W.SINF) == expected
    assert parse_element("q p", W.BCS) == delta(W.BCS, (B(1, 1),))
    assert parse_element("e", W.F2) == unit(W.F2)
    assert parse_element("2*e - t1", W.SINF) == unit(W.SINF).scale(2) - delta(W.SINF, (T(1),))


def test_parse_errors_are_annotated():
    with pytest.raises(ExprSyntaxError) as err:
        parse_element("p z", W.BCS)
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse_element("p +", W.BCS)
    with pytest.raises(ExprSyntaxError):
        parse_element("", W.BCS)
    with pytest.raises(ExprSyntaxError):
        parse_element("2 t1", W.SINF)  # scalar must be glued with '*'
    with pytest.raises(ExprSyntaxError):
        parse_element("p", W.SINF)  # universe violation
    with pytest.raises(ExprSyntaxError):
        parse_element("t1 e", W.SINF)  # e cannot be mixed in
    with pytest.raises(ExprSyntaxError):
        parse_word("x -", W.F2)  # inverse marker is part of the token
    with pytest.raises(ExprSyntaxError):
        parse_element("t0", W.SINF)  # generator indices start at 1
    with pytest.raises(ExprSyntaxError):
        parse_element("1/0*e", W.BCS)  # zero denominator


def test_unknown_universe_is_one_error():
    for parse in (parse_element, parse_word):
        for text in ("p", "e", "2*q", ""):
            with pytest.raises(ValueError) as err:
                parse(text, "nowhere")
            assert type(err.value) is ValueError and str(err.value) == "unknown universe 'nowhere'"


def test_round_trip_random_elements():
    rng = random.Random(501)
    for universe in W.UNIVERSES:
        for _ in range(250):
            el = random_element(rng, universe, terms=4)
            rendered = el.render()
            assert parse_element(rendered, universe) == el
            # rendering is canonical: a second round trip is textually stable
            assert parse_element(rendered, universe).render() == rendered


def test_parse_of_scalar_forms():
    el = parse_element("1/2+1/3i*p q", W.BCS)
    coeff = el.coordinate(W.identity_word(W.BCS))
    assert str(coeff) == "1/2+1/3i"
    el = parse_element("-2*e", W.BCS)
    assert str(el.coordinate(())) == "-2"
    el = parse_element("0+1i*t1", W.SINF)
    assert str(el.coordinate((T(1),))) == "0+1i"


def test_cli_mul_and_normalize(capsys):
    code, payload = run_cli(capsys, "mul", "--universe", "bcs", "p", "q")
    assert code == 0 and payload["result"] == "1*e"
    code, payload = run_cli(capsys, "mul", "--universe", "bcs", "q", "p")
    assert code == 0 and payload["result"] == "1*q p"
    code, payload = run_cli(capsys, "normalize", "--universe", "bcs", "p q p q")
    assert code == 0 and payload["result"] == "1*e"
    # an expression may open with a negative scalar
    code, payload = run_cli(capsys, "mul", "--universe", "bcs", "p", "-1/2*q")
    assert code == 0 and payload["result"] == "-1/2*e"


def test_cli_star_coord_phi_trace(capsys):
    code, payload = run_cli(capsys, "star", "--universe", "bcs", "p t1")
    assert code == 0 and payload["result"] == "1*t1* q"
    code, payload = run_cli(capsys, "coord", "--universe", "bc", "p + 3*q", "--word", "q")
    assert code == 0 and payload["result"] == "3"
    code, payload = run_cli(capsys, "phi", "t2")
    assert code == 0 and payload["result"] == "1*p + 1/2*t2"
    code, payload = run_cli(capsys, "trace", "x x-")
    assert code == 0 and payload["result"] == "1"


def test_cli_verifiers(capsys):
    code, payload = run_cli(capsys, "lemma-support", "--m", "2", "--k", "2")
    assert code == 0 and payload["result"] == "pass"
    code, payload = run_cli(capsys, "lemma-coord", "--m", "2", "--k", "2", "--gamma", "3/(2n^2)")
    assert code == 0 and payload["result"] == "pass"
    code, payload = run_cli(capsys, "rank", "--m", "2", "--k", "2")
    assert code == 0 and payload["rank"] == 21


def test_cli_inverse_search_exit_codes(capsys):
    code, payload = run_cli(capsys, "inv-search", "--universe", "bc", "--side", "right", "--m", "1", "p")
    assert code == 0 and payload["solution"] == "1*q"
    code, payload = run_cli(capsys, "inv-search", "--universe", "bc", "--side", "right", "--m", "6", "q")
    assert code == 1 and payload["result"] == "infeasible"


def test_cli_inverse_search_refuses_a_negative_k_extra(capsys):
    argv = ["inv-search", "--universe", "sinf", "--side", "left", "--m", "2", "--k-extra", "-2", "1*e + 1/2*t1"]
    code, payload = run_cli(capsys, *argv)
    assert code == 2 and payload == {"result": "error", "message": "k_extra must be >= 0"}


def test_cli_moment_and_gram(capsys):
    code, payload = run_cli(capsys, "moment", "q t1 p")
    assert code == 0 and payload["result"] == "1/4"
    code, payload = run_cli(capsys, "moment", "--vacuum", "t1")
    assert code == 0 and payload["result"] == "0"
    code, payload = run_cli(capsys, "moment", "--universe", "bc", "q p")
    assert code == 0 and payload["result"] == "1/2"
    code, payload = run_cli(capsys, "moment", "--z", "1/3", "t1")
    assert code == 0 and payload["result"] == "1/3"
    code, payload = run_cli(capsys, "phi", "t3", "--gamma", "1")
    assert code == 0 and payload["result"] == "1*p + 1*t3"
    code, payload = run_cli(capsys, "gram", "--universe", "bc", "--words", "e; q; q q")
    assert code == 0 and payload["psd"] is True
    code, payload = run_cli(capsys, "gram", "--m", "1", "--k", "1", "--vacuum")
    assert code == 0 and payload["psd"] is True
    code, payload = run_cli(capsys, "gram", "--universe", "bc", "--m", "2")
    assert code == 0 and payload["psd"] is True
    assert payload["words"] == ["e", "p", "p p", "q", "q p", "q q"]


# (argv, exit code, JSON payload without elapsed_ms) for the state and
# inverse-search commands over every universe they take, and for the
# parse errors of each grammar rule, message and position byte for byte
GOLDEN = [
    (['moment', '--universe', 'bc', 'q p'], 0, '{"command": "moment", "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/2"}}, "result": "1/2"}'),
    (['moment', '--universe', 'bc', '--vacuum', '2*q q p p + 1/3*e - p'], 0, '{"command": "moment", "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "vacuum"}}, "result": "5/6"}'),
    (['moment', '--universe', 'sinf', '--z', '1/3', 't1 t2* + 1/2*t1'], 0, '{"command": "moment", "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/3"}}, "result": "5/18"}'),
    (['moment', '--universe', 'sinf', '--vacuum', '3*e + t1 t1*'], 0, '{"command": "moment", "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "vacuum"}}, "result": "3"}'),
    (['moment', '--universe', 'bcs', 'q t1 p'], 0, '{"command": "moment", "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/2"}}, "result": "1/4"}'),
    (['moment', '--universe', 'bcs', '--z', '-3/5', 'q t1 p t2 + 2*t1* q p'], 0, '{"command": "moment", "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "-3/5"}}, "result": "-21/50"}'),
    (['moment', '--universe', 'bcs', '--vacuum', '1+2i*q t1 p + q p'], 0, '{"command": "moment", "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "vacuum"}}, "result": "1/2"}'),
    (['gram', '--universe', 'bc', '--m', '2'], 0, '{"check": "gram-psd", "universe": "bc", "words": ["e", "p", "p p", "q", "q p", "q q"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/2"}}, "psd": true}'),
    (['gram', '--universe', 'bc', '--m', '1', '--vacuum'], 0, '{"check": "gram-psd", "universe": "bc", "words": ["e", "p", "q"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "vacuum"}}, "psd": true}'),
    (['gram', '--universe', 'bc', '--words', 'e; q; q q'], 0, '{"check": "gram-psd", "universe": "bc", "words": ["e", "q", "q q"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/2"}}, "psd": true}'),
    (['gram', '--universe', 'sinf', '--m', '1', '--k', '2', '--z', '2'], 0, '{"check": "gram-psd", "universe": "sinf", "words": ["e", "t1", "t1*", "t2", "t2*"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "2"}}, "psd": true}'),
    (['gram', '--universe', 'sinf', '--vacuum', '--words', 'e; t1; t1*'], 0, '{"check": "gram-psd", "universe": "sinf", "words": ["e", "t1", "t1*"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "vacuum"}}, "psd": true}'),
    (['gram', '--universe', 'bcs', '--m', '1', '--k', '1'], 0, '{"check": "gram-psd", "universe": "bcs", "words": ["e", "p", "p p", "p p p", "q", "q p", "q p p", "q q", "q q p", "q q q", "t1", "t1*"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/2"}}, "psd": true}'),
    (['gram', '--universe', 'bcs', '--m', '1', '--k', '1', '--vacuum'], 0, '{"check": "gram-psd", "universe": "bcs", "words": ["e", "p", "p p", "p p p", "q", "q p", "q p p", "q q", "q q p", "q q q", "t1", "t1*"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "vacuum"}}, "psd": true}'),
    (['gram', '--universe', 'bcs', '--z', '-1/2', '--words', 'e; q t1; t1 p; q t1 p'], 0, '{"check": "gram-psd", "universe": "bcs", "words": ["e", "q t1", "t1 p", "q t1 p"], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "-1/2"}}, "psd": true}'),
    # an empty word list is checked as given, not replaced by the default enumeration
    (['gram', '--universe', 'bc', '--words', ''], 0, '{"check": "gram-psd", "universe": "bc", "words": [], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/2"}}, "psd": true}'),
    (['gram', '--universe', 'bc', '--words', ' ; '], 0, '{"check": "gram-psd", "universe": "bc", "words": [], "state_config": {"bc_state": {"kind": "dyadic-shift"}, "s_state": {"kind": "character", "z": "1/2"}}, "psd": true}'),
    (['inv-search', '--universe', 'bc', '--side', 'right', '--m', '3', '2/3*p'], 0, '{"check": "inverse-search", "params": {"side": "right", "universe": "bc", "m": 3, "k_extra": 0}, "result": "found", "candidates": 10, "rank": 8, "rank_augmented": 8, "solution": "3/2*q"}'),
    (['inv-search', '--universe', 'bc', '--side', 'left', '--m', '3', 'q'], 0, '{"check": "inverse-search", "params": {"side": "left", "universe": "bc", "m": 3, "k_extra": 0}, "result": "found", "candidates": 10, "rank": 8, "rank_augmented": 8, "solution": "1*p"}'),
    (['inv-search', '--universe', 'bc', '--side', 'right', '--m', '3', 'q'], 1, '{"check": "inverse-search", "params": {"side": "right", "universe": "bc", "m": 3, "k_extra": 0}, "result": "infeasible", "candidates": 10, "rank": 10, "rank_augmented": 11}'),
    (['inv-search', '--universe', 'bcs', '--side', 'right', '--m', '1', 'p'], 0, '{"check": "inverse-search", "params": {"side": "right", "universe": "bcs", "m": 1, "k_extra": 0}, "result": "found", "candidates": 10, "rank": 8, "rank_augmented": 8, "solution": "1*q"}'),
    (['inv-search', '--universe', 'bcs', '--side', 'left', '--m', '1', '1*e + 1/2*t2'], 1, '{"check": "inverse-search", "params": {"side": "left", "universe": "bcs", "m": 1, "k_extra": 0}, "result": "infeasible", "candidates": 14, "rank": 14, "rank_augmented": 15}'),
    (['inv-search', '--universe', 'sinf', '--side', 'right', '--m', '2', '3*e'], 0, '{"check": "inverse-search", "params": {"side": "right", "universe": "sinf", "m": 2, "k_extra": 0}, "result": "found", "candidates": 1, "rank": 1, "rank_augmented": 1, "solution": "1/3*e"}'),
    (['inv-search', '--universe', 'sinf', '--side', 'left', '--m', '2', '1*e + 2*t1'], 1, '{"check": "inverse-search", "params": {"side": "left", "universe": "sinf", "m": 2, "k_extra": 0}, "result": "infeasible", "candidates": 7, "rank": 7, "rank_augmented": 8}'),
    (['inv-search', '--universe', 'bc', '--side', 'right', '--m', '2', '1+2i*p'], 0, '{"check": "inverse-search", "params": {"side": "right", "universe": "bc", "m": 2, "k_extra": 0}, "result": "found", "candidates": 6, "rank": 5, "rank_augmented": 5, "solution": "1/5-2/5i*q"}'),
    (['inv-search', '--universe', 'bcs', '--side', 'left', '--m', '1', '--k-extra', '1', '2*q'], 0, '{"check": "inverse-search", "params": {"side": "left", "universe": "bcs", "m": 1, "k_extra": 1}, "result": "found", "candidates": 12, "rank": 10, "rank_augmented": 10, "solution": "1/2*p"}'),
    (['inv-search', '--universe', 'f2', '--side', 'right', '--m', '2', 'x y'], 0, '{"check": "inverse-search", "params": {"side": "right", "universe": "f2", "m": 2, "k_extra": 0}, "result": "found", "candidates": 17, "rank": 17, "rank_augmented": 17, "solution": "1*y- x-"}'),
    (['inv-search', '--universe', 'f2', '--side', 'left', '--m', '2', '1*e + x'], 1, '{"check": "inverse-search", "params": {"side": "left", "universe": "f2", "m": 2, "k_extra": 0}, "result": "infeasible", "candidates": 17, "rank": 17, "rank_augmented": 18}'),
    (['normalize', '--universe', 'bcs', ''], 2, '{"result": "error", "message": "empty expression", "position": 0}'),
    (['normalize', '--universe', 'bcs', 'p +'], 2, '{"result": "error", "message": "dangling operator at end of expression", "position": 2}'),
    (['normalize', '--universe', 'bcs', '2*e p'], 2, '{"result": "error", "message": "expected \'+\' or \'-\' between terms, found \'p\'", "position": 4}'),
    (['normalize', '--universe', 'bcs', '2 t1'], 2, '{"result": "error", "message": "scalar must be glued to a generator with \'*\', as in \'1/2*t1\' (got \'2\')", "position": 0}'),
    (['normalize', '--universe', 'bcs', '1/0*e'], 2, '{"result": "error", "message": "zero denominator in scalar \'1/0\'", "position": 0}'),
    (['normalize', '--universe', 'bcs', 't1 e'], 2, '{"result": "error", "message": "\'e\' stands alone; it cannot be mixed with generators", "position": 3}'),
    (['normalize', '--universe', 'bcs', 't0'], 2, '{"result": "error", "message": "generator index must be >= 1 in \'t0\'", "position": 0}'),
    (['normalize', '--universe', 'bcs', 'p z'], 2, '{"result": "error", "message": "token \'z\' is not a generator of universe \'bcs\' (allowed: p, q, t)", "position": 2}'),
    (['normalize', '--universe', 'sinf', ''], 2, '{"result": "error", "message": "empty expression", "position": 0}'),
    (['normalize', '--universe', 'sinf', 'p +'], 2, '{"result": "error", "message": "token \'p\' is not a generator of universe \'sinf\' (allowed: t)", "position": 0}'),
    (['normalize', '--universe', 'sinf', '2*e p'], 2, '{"result": "error", "message": "expected \'+\' or \'-\' between terms, found \'p\'", "position": 4}'),
    (['normalize', '--universe', 'sinf', '2 t1'], 2, '{"result": "error", "message": "scalar must be glued to a generator with \'*\', as in \'1/2*t1\' (got \'2\')", "position": 0}'),
    (['normalize', '--universe', 'sinf', '1/0*e'], 2, '{"result": "error", "message": "zero denominator in scalar \'1/0\'", "position": 0}'),
    (['normalize', '--universe', 'sinf', 't1 e'], 2, '{"result": "error", "message": "\'e\' stands alone; it cannot be mixed with generators", "position": 3}'),
    (['normalize', '--universe', 'sinf', 't0'], 2, '{"result": "error", "message": "generator index must be >= 1 in \'t0\'", "position": 0}'),
    (['normalize', '--universe', 'sinf', 'p z'], 2, '{"result": "error", "message": "token \'p\' is not a generator of universe \'sinf\' (allowed: t)", "position": 0}'),
    (['normalize', '--universe', 'f2', ''], 2, '{"result": "error", "message": "empty expression", "position": 0}'),
    (['normalize', '--universe', 'f2', 'p +'], 2, '{"result": "error", "message": "token \'p\' is not a generator of universe \'f2\' (allowed: x, y, x-, y-)", "position": 0}'),
    (['normalize', '--universe', 'f2', '2*e p'], 2, '{"result": "error", "message": "expected \'+\' or \'-\' between terms, found \'p\'", "position": 4}'),
    (['normalize', '--universe', 'f2', '2 t1'], 2, '{"result": "error", "message": "scalar must be glued to a generator with \'*\', as in \'1/2*t1\' (got \'2\')", "position": 0}'),
    (['normalize', '--universe', 'f2', '1/0*e'], 2, '{"result": "error", "message": "zero denominator in scalar \'1/0\'", "position": 0}'),
    (['normalize', '--universe', 'f2', 't1 e'], 2, '{"result": "error", "message": "token \'t1\' is not a generator of universe \'f2\' (allowed: x, y, x-, y-)", "position": 0}'),
    (['normalize', '--universe', 'f2', 't0'], 2, '{"result": "error", "message": "token \'t0\' is not a generator of universe \'f2\' (allowed: x, y, x-, y-)", "position": 0}'),
    (['normalize', '--universe', 'f2', 'p z'], 2, '{"result": "error", "message": "token \'p\' is not a generator of universe \'f2\' (allowed: x, y, x-, y-)", "position": 0}'),
    (['normalize', '--universe', 'sinf', 'p'], 2, '{"result": "error", "message": "token \'p\' is not a generator of universe \'sinf\' (allowed: t)", "position": 0}'),
    # the grammar's digits are ASCII: a Unicode digit is no scalar and no generator index
    (['normalize', '--universe', 'bc', '²*p'], 2, '{"result": "error", "message": "token \'\\u00b2*p\' is not a generator of universe \'bc\' (allowed: p, q)", "position": 0}'),
    (['normalize', '--universe', 'bc', '-²*p'], 2, '{"result": "error", "message": "the following arguments are required: expr"}'),
    (['normalize', '--universe', 'bc', '٣*p'], 2, '{"result": "error", "message": "token \'\\u0663*p\' is not a generator of universe \'bc\' (allowed: p, q)", "position": 0}'),
    (['normalize', '--universe', 'bcs', 't٣'], 2, '{"result": "error", "message": "token \'t\\u0663\' is not a generator of universe \'bcs\' (allowed: p, q, t)", "position": 0}'),
    (['coord', '--universe', 'bcs', 'p', '--word', ''], 2, '{"result": "error", "message": "empty word", "position": 0}'),
    (['coord', '--universe', 'f2', 'x', '--word', 'x -'], 2, '{"result": "error", "message": "token \'-\' is not a generator of universe \'f2\' (allowed: x, y, x-, y-)", "position": 2}'),
]


def test_cli_golden_outputs(capsys):
    for argv, code, text in GOLDEN:
        got_code, payload = run_cli(capsys, *argv)
        payload.pop("elapsed_ms", None)
        assert (got_code, payload) == (code, json.loads(text)), argv


def test_cli_rep_commands(capsys):
    code, payload = run_cli(capsys, "rep-report", "--count", "3", "--dim", "32")
    assert code == 0 and len(payload["rows"]) == 3
    assert abs(payload["rows"][1]["n"] * payload["rows"][1]["norm_an_minus_p"] - 1.0) <= 1e-12
    code, payload = run_cli(capsys, "boundary-check", "--window", "3", "--dim", "32")
    assert code == 0 and payload["result"] == "pass"


def test_cli_usage_and_parse_errors_are_json(capsys):
    code, payload = run_cli(capsys, "no-such-command")
    assert code == 2 and "message" in payload
    code, payload = run_cli(capsys, "normalize", "--universe", "bcs", "p z")
    assert code == 2 and payload["result"] == "error"
    code, payload = run_cli(capsys, "normalize", "--universe", "nowhere", "p")
    assert code == 2
    code, payload = run_cli(capsys, "mul", "--universe", "bcs", "p")
    assert code == 2  # missing operand
    code, payload = run_cli(capsys, "inv-search", "--universe", "bc", "--side", "up", "--m", "1", "p")
    assert code == 2
    code, payload = run_cli(capsys, "moment", "--max-blocks", "2", "q t1 p t2 q q")
    assert code == 2  # the block cap is gone; moments take words of any length
    code, payload = run_cli(capsys, "boundary-check", "--window", "-1", "--dim", "16")
    assert code == 2 and payload["result"] == "error"
    for count in ("-3", "0"):
        code, payload = run_cli(capsys, "rep-report", "--count", count, "--dim", "16")
        assert code == 2 and payload["result"] == "error"
    # --count is held to RepConfig's max_index of 64
    code, payload = run_cli(capsys, "rep-report", "--count", "64", "--dim", "16")
    assert code == 0 and len(payload["rows"]) == 64
    code, payload = run_cli(capsys, "rep-report", "--count", "65", "--dim", "16")
    assert code == 2 and payload == {"result": "error", "message": "count 65 exceeds max_index 64"}
    # no switch lifts the budgets
    for argv in (
        ["lemma-support", "--m", "2", "--k", "1"],
        ["lemma-coord", "--m", "2", "--k", "1"],
        ["rank", "--m", "2", "--k", "1"],
        ["inv-search", "--universe", "bc", "--side", "right", "--m", "1", "p"],
        ["gram", "--m", "1", "--k", "1"],
    ):
        code, payload = run_cli(capsys, *argv, "--force")
        assert code == 2 and payload == {"result": "error", "message": "unrecognized arguments: --force"}, argv


def test_cli_zero_denominators_in_flags_are_named(capsys, tmp_path):
    z_error = {"result": "error", "message": "zero denominator in --z value '1/0'"}
    gamma_error = {"result": "error", "message": "zero denominator in gamma 'const:1/0'"}
    for argv, expected in (
        (["moment", "--z", "1/0", "t1"], z_error),
        (["gram", "--z", "1/0", "--m", "1", "--k", "1"], z_error),
        (["phi", "t1", "--gamma", "const:1/0"], gamma_error),
        (["lemma-support", "--m", "1", "--k", "1", "--gamma", "const:1/0"], gamma_error),
        (["lemma-coord", "--m", "1", "--k", "1", "--gamma", "const:1/0"], gamma_error),
        (["rank", "--m", "1", "--k", "1", "--gamma", "const:1/0"], gamma_error),
    ):
        code, payload = run_cli(capsys, *argv)
        assert (code, payload) == (2, expected), argv
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"z": "1/0"}))
    code, payload = run_cli(capsys, "moment", "--config", str(cfg), "t1")
    assert (code, payload) == (2, z_error)


def test_cli_refuses_a_non_positive_constant_gamma(capsys):
    for value in ("-1", "0", "-2/3"):
        expected = (2, {"result": "error", "message": f"gamma constant {value} must be positive"})
        assert run_cli(capsys, "phi", "e", "--gamma", f"const:{value}") == expected
        assert run_cli(capsys, "rank", "--m", "0", "--k", "2", "--gamma", f"const:{value}") == expected
        assert run_cli(capsys, "lemma-support", "--m", "1", "--k", "1", "--gamma", f"const:{value}") == expected


def test_cli_resource_limits_exit_three(capsys):
    code, payload = run_cli(capsys, "lemma-support", "--m", "50", "--k", "3")
    assert code == 3 and payload["result"] == "error"
    for command, m in (("lemma-support", "50"), ("rank", "13")):
        code, payload = run_cli(capsys, command, "--m", m, "--k", "1")
        guard = f"enumeration bounds m={m}, k=1 exceed the safety limits (m <= 12, k <= 16)"
        assert code == 3 and payload == {"result": "error", "message": guard}
    code, payload = run_cli(capsys, "gram", "--m", "4", "--k", "6")
    assert code == 3
    code, payload = run_cli(capsys, "gram", "--universe", "bc", "--m", "60")
    assert code == 3  # 1891 words, each its own block: a 1891 x 1891 K is over budget
    code, payload = run_cli(capsys, "gram", "--m", "3", "--k", "1")
    assert code == 0 and payload["psd"] is True  # 6765 words, but only a 190 x 190 K is built
    for command in ("rep-report", "boundary-check"):
        code, payload = run_cli(capsys, command, "--dim", "2000")
        assert code == 3 and payload["result"] == "error"  # 2000^2 cells per matrix
    for letters in (18, 1200):
        code, payload = run_cli(capsys, "phi", " ".join(["t1"] * letters))
        assert code == 3 and payload["result"] == "error"  # up to 2^letters image terms


def test_cli_word_budget_covers_every_list(capsys):
    # bc lists and bcs lists without free letters are held to the same 200000-word budget
    for universe, m, expr, count in (("bc", "700", "q", 246051), ("bcs", "300", "2*e", 406351)):
        code, payload = run_cli(capsys, "inv-search", "--universe", universe, "--side", "right", "--m", m, expr)
        assert code == 3 and payload["message"] == f"enumeration would produce {count} words (limit 200000)"
    # e and the 1890 blocks of exponent sum <= 60; without free letters the length guard does not apply
    code, payload = run_cli(capsys, "inv-search", "--universe", "bcs", "--side", "right", "--m", "20", "2*e")
    assert code == 0 and payload["candidates"] == 1891 and payload["solution"] == "1/2*e"


def test_cli_word_list_arguments(capsys):
    for universe, expr in (("bc", "q"), ("bcs", "2*e"), ("sinf", "2*e"), ("f2", "x")):
        code, payload = run_cli(capsys, "inv-search", "--universe", universe, "--side", "right", "--m", "-1", expr)
        assert code == 2 and payload["message"] == "m must be >= 0"
    code, payload = run_cli(capsys, "gram", "--universe", "bc", "--m", "-1")
    assert code == 2 and payload["message"] == "m must be >= 0"
    code, payload = run_cli(capsys, "gram", "--universe", "bc", "--m", "1", "--k", "-1")
    assert code == 0 and payload["words"] == ["e", "p", "q"]  # k is not read on bc
    code, payload = run_cli(capsys, "lemma-support", "--m", "2", "--k", "-1")
    assert code == 2 and payload["message"] == "k must be >= 0"
    # k = 0: no free letters, so the list is the empty word alone
    code, payload = run_cli(capsys, "lemma-support", "--m", "2", "--k", "0")
    assert code == 0 and payload["result"] == "pass" and payload["words_checked"] == 1
    code, payload = run_cli(capsys, "rank", "--m", "2", "--k", "0")
    assert code == 0 and payload["rank"] == payload["dimension"] == 1
    code, payload = run_cli(capsys, "gram", "--m", "1", "--k", "0")
    assert code == 0 and payload["words"] == ["e", "p", "p p", "p p p", "q", "q p", "q p p", "q q", "q q p", "q q q"]


def test_cli_rank_cell_budget_guards_only_elimination(capsys, monkeypatch):
    # the triangularity witness builds no matrix, so the cell budget does not apply to it
    code, payload = run_cli(capsys, "rank", "--m", "4", "--k", "3")
    assert code == 0 and payload["result"] == "pass" and payload["matrix_dims"] == [1555, 4473]
    monkeypatch.setattr("pqt.words.DEFAULT_MAX_CELLS", 100)
    word_image = Embedding.word_image
    target = (T(1), T(1, True))

    def tampered(self, w):
        # a block-free word as long as w enters its image, so elimination runs
        image = word_image(self, w)
        return image + delta(W.BCS, (T(1, True), T(1))) if w == target else image

    patch_word_images(monkeypatch, tampered)
    code, payload = run_cli(capsys, "rank", "--m", "2", "--k", "1")
    assert code == 3 and payload["message"] == "coordinate matrix 7x20 exceeds max_cells=100"


def test_cli_unexpected_exception_is_json_with_exit_four(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("handler defect")

    monkeypatch.setattr("pqt.cli._cmd_trace", broken)
    code, payload = run_cli(capsys, "trace", "x")
    assert code == 4
    assert payload == {"result": "error", "message": "RuntimeError: handler defect"}


def test_cli_verifier_commands_call_the_module_globals(capsys, monkeypatch):
    # a wrapper installed on pqt.cli after import, as the benchmark tracer installs its own
    import pqt.cli

    called = []
    for name in ("verify_support_bound", "verify_coordinate_separation", "injectivity_rank"):

        def wrapped(*args, _verifier=getattr(pqt.cli, name), _name=name):
            called.append(_name)
            return _verifier(*args)

        monkeypatch.setattr(pqt.cli, name, wrapped)
    for command in ("lemma-support", "lemma-coord", "rank"):
        code, payload = run_cli(capsys, command, "--m", "1", "--k", "1")
        assert code == 0 and payload["result"] == "pass"
    assert called == ["verify_support_bound", "verify_coordinate_separation", "injectivity_rank"]


def test_cli_subprocess_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "pqt.cli", "mul", "--universe", "bcs", "p", "q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "1*e"
    proc = subprocess.run(
        [sys.executable, "-m", "pqt.cli", "normalize", "--universe", "bcs", "oops"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    json.loads(proc.stdout)  # still machine-readable
    assert proc.stderr  # the human-readable detail goes to stderr


def test_cli_imports_numpy_only_for_the_float_commands():
    # a fresh interpreter, as the suite itself imports numpy
    import subprocess
    import sys

    script = """
import contextlib, io, json, sys
steps = []
import pqt
steps.append(("import pqt", "numpy" in sys.modules, "op_norm" in dir(pqt)))
import pqt.cli
steps.append(("import pqt.cli", "numpy" in sys.modules, None))
for argv in (["mul", "--universe", "bcs", "p", "q"], ["lemma-support", "--m", "2", "--k", "1"], ["rep-report", "--count", "2", "--dim", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = pqt.cli.main(argv)
    steps.append((argv[0], "numpy" in sys.modules, code))
from pqt import op_norm
steps.append(("from pqt import op_norm", pqt.op_norm is op_norm is pqt.oper.op_norm, None))
print(json.dumps(steps))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import pqt", False, True],
        ["import pqt.cli", False, None],
        ["mul", False, 0],
        ["lemma-support", False, 0],
        ["rep-report", True, 0],
        ["from pqt import op_norm", True, None],
    ]


def test_cli_config_file_supplies_flag_defaults(capsys, tmp_path):
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"m": 2, "k": 2, "gamma": "1"}))
    code, payload = run_cli(capsys, "lemma-support", "--config", str(cfg))
    assert code == 0 and payload["params"] == {"m": 2, "k": 2, "gamma": "1"}
    # explicit flags beat the config file
    code, payload = run_cli(capsys, "lemma-support", "--config", str(cfg), "--m", "1")
    assert code == 0 and payload["params"]["m"] == 1
    code, payload = run_cli(capsys, "rank", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_cli_config_files_that_cannot_be_read_exit_two(capsys, tmp_path):
    import sys

    cfg = tmp_path / "flags.json"
    contents = [b'{"m": "\xff"}', b"[" * 100_000]
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():  # an interpreter without a digit limit reads any int
        contents.append(b'{"m": ' + b"7" * 5000 + b"}")
    for content in contents:
        cfg.write_bytes(content)
        code, payload = run_cli(capsys, "lemma-support", "--config", str(cfg), "--k", "1")
        assert code == 2 and payload["result"] == "error", content[:20]
        assert payload["message"].startswith(f"cannot read config {str(cfg)!r}: "), content[:20]


def test_cli_config_values_are_type_checked(capsys, tmp_path):
    cfg = tmp_path / "flags.json"
    for command, bad in (
        ("lemma-support", {"m": 2.5}),
        ("lemma-support", {"m": True}),
        ("lemma-support", {"gamma": 1}),
        ("gram", {"vacuum": 1}),
        ("gram", {"universe": "f2"}),
    ):
        cfg.write_text(json.dumps(bad))
        code, payload = run_cli(capsys, command, "--config", str(cfg), "--k", "1")
        assert code == 2 and payload["result"] == "error", bad
    cfg.write_text(json.dumps({"m": 2}))
    code, payload = run_cli(capsys, "lemma-support", "--config", str(cfg), "--k", "1")
    assert code == 0 and payload["params"]["m"] == 2
    # a value is checked against the command it is used by
    cfg.write_text(json.dumps({"universe": "f2"}))
    code, payload = run_cli(capsys, "normalize", "--config", str(cfg), "x x-")
    assert code == 0 and payload["result"] == "1*e"


def test_cli_help_keeps_the_json_contract(capsys, tmp_path):
    import subprocess
    import sys

    # contract: help text on stderr, one JSON object {"result": "help", "prog": ...} on stdout, exit 0
    for argv, prog in ((["normalize", "--help"], "pqt normalize"), (["-h"], "pqt"), (["rank", "--m", "1", "-h"], "pqt rank")):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and out == json.dumps({"result": "help", "prog": prog}) + "\n"
        assert err.startswith(f"usage: {prog}")
    proc = subprocess.run([sys.executable, "-m", "pqt.cli", "mul", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0 and json.loads(proc.stdout) == {"result": "help", "prog": "pqt mul"}
    # a help key in a config file names no argument of the command
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"help": "x"}))
    code, payload = run_cli(capsys, "normalize", "--config", str(cfg), "--universe", "bc", "p")
    assert code == 2 and payload == {"result": "error", "message": "unrecognized config keys: help"}


def test_cli_config_keys_must_name_arguments_of_the_command(capsys, tmp_path):
    cfg = tmp_path / "flags.json"
    # a key that names no flag is refused, as the flag itself is on the command line
    cfg.write_text(json.dumps({"m": 2, "k": 1, "force": True, "mm": 5}))
    code, payload = run_cli(capsys, "lemma-support", "--config", str(cfg))
    assert code == 2 and payload == {"result": "error", "message": "unrecognized config keys: force, mm"}
    cfg.write_text(json.dumps({"m": 2, "k": 1, "universe": "bcs"}))
    code, payload = run_cli(capsys, "lemma-support", "--config", str(cfg))
    assert code == 2 and payload == {"result": "error", "message": "unrecognized config keys: universe"}
    # a key may name a positional, with dashes or underscores in flag names
    cfg.write_text(json.dumps({"expr": "p q"}))
    code, payload = run_cli(capsys, "normalize", "--config", str(cfg), "--universe", "bc")
    assert code == 0 and payload["result"] == "1*e"
    cfg.write_text(json.dumps({"k-extra": 1, "side": "right", "m": 1}))
    code, payload = run_cli(capsys, "inv-search", "--config", str(cfg), "--universe", "bcs", "p")
    assert code == 0 and payload["params"]["k_extra"] == 1


COMMANDS = ["normalize", "mul", "star", "coord", "phi", "lemma-support", "lemma-coord", "rank",
            "inv-search", "moment", "gram", "trace", "rep-report", "boundary-check"]

# per command: (required arguments only, every flag given, a config file's flag values)
COMMAND_ARGVS = {
    "normalize": (["--universe", "bc", "p q"], ["--universe", "bcs", "2*p t1"], {"universe": "sinf"}),
    "mul": (["--universe", "bc", "p", "q"], ["--universe", "f2", "x", "-1/2*x-"], {"universe": "bcs"}),
    "star": (["--universe", "bc", "p"], ["--universe", "sinf", "t1 t2*"], {"universe": "bcs"}),
    "coord": (["--universe", "bc", "p", "--word", "p"], ["--universe", "f2", "x + y", "--word", "y"], {"word": "p"}),
    "phi": (["t1"], ["t1 t2", "--gamma", "1"], {"gamma": "3/(2n^2)"}),
    "lemma-support": (["--m", "1", "--k", "1"], ["--m", "1", "--k", "1", "--gamma", "1"], {"m": 1, "k": 1}),
    "lemma-coord": (["--m", "1", "--k", "1"], ["--m", "1", "--k", "1", "--gamma", "1"], {"m": 1, "k": 1}),
    "rank": (["--m", "1", "--k", "1"], ["--m", "1", "--k", "1", "--gamma", "1"], {"m": 1, "k": 1, "gamma": "1"}),
    "inv-search": (
        ["--universe", "bc", "--side", "right", "--m", "1", "p"],
        ["--universe", "bcs", "--side", "left", "--m", "1", "--k-extra", "1", "2*q"],
        {"side": "right", "m": 1},
    ),
    "moment": (["t1"], ["--universe", "bc", "--z", "1/3", "--vacuum", "q p"], {"z": "1/3", "vacuum": True}),
    "gram": (["--m", "1", "--k", "1"], ["--universe", "bc", "--m", "1", "--k", "1", "--words", "e; q", "--z", "2", "--vacuum"],
             {"universe": "bc", "m": 1}),
    "trace": (["x x-"], ["2*x + e"], {"expr": "x"}),
    "rep-report": (["--count", "2", "--dim", "8"], ["--count", "3", "--dim", "16"], {"dim": 8}),
    "boundary-check": (["--window", "2", "--dim", "8"], ["--window", "3", "--dim", "16"], {"dim": 8}),
}


def test_cli_command_table_lists_every_command():
    from pqt import cli

    assert list(cli._COMMANDS) == COMMANDS == list(COMMAND_ARGVS)


def _parse_both_ways(capsys, monkeypatch, argvs) -> list:
    """(argv, exit code, stdout, stderr) of each argv through the one-command
    parser, asserted equal to the same through the full tree.

    Every handler echoes what it was handed, so the runs compare the parses,
    not the work."""
    from pqt import cli

    def echo(name):
        def handler(args):
            return {key: getattr(value, "__name__", value) for key, value in vars(args).items()}, 0

        handler.__name__ = name
        return handler

    with monkeypatch.context() as patch:
        for name in [name for name in vars(cli) if name.startswith("_cmd_")]:
            patch.setattr(cli, name, echo(name))
        build = cli._build

        def outputs():
            got = []
            for argv in argvs:
                code = main(argv)
                got.append((argv, code, *capsys.readouterr()))
            return got

        one_command = outputs()
        patch.setattr(cli, "_build", lambda command=None: build())
        full_tree = outputs()
    assert one_command == full_tree
    return one_command


def test_cli_one_command_tree_parses_as_the_full_tree(capsys, monkeypatch, tmp_path):
    argvs = [[], ["-h"], ["no-such-command"], ["--config"]]
    for command, (required, full, config) in COMMAND_ARGVS.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        argvs += [
            [command, *required],
            [command, *full],
            ["--config", str(cfg), command, *required],
            [command, *full, f"--config={cfg}"],
            [command, *required, "--no-such-flag"],
            [command],
            [command, "-h"],
        ]
    argvs += [
        ["normalize", "--universe", "bc", "-1/2*q"],  # a leading negative scalar is an operand, not an option
        ["mul", "--universe", "bc", "-1*p", "-2*q + p"],
        ["normalize", "--universe", "bc", "--", "-1*p"],
        ["normalize", "--uni", "bc", "p"],  # an abbreviated flag
        ["lemma-support", "--m", "x", "--k", "1"],  # a bad integer
        ["normalize", "--universe", "zz", "p"],  # a bad choice
        ["normalize", "--universe", "bc", "p", "q"],  # extra positionals
        ["trace", "x", "y", "x-"],
        ["rank", "--m", "1", "--k", "1", "--", "extra"],
    ]
    one_command = _parse_both_ways(capsys, monkeypatch, argvs)
    # the echo ran for every command, flags and config values included
    parsed = {tuple(argv): json.loads(out) for argv, code, out, _ in one_command if code == 0}
    assert parsed[("moment", *COMMAND_ARGVS["moment"][1])] == {
        "command": "moment", "universe": "bc", "expr": "q p", "z": "1/3", "vacuum": True, "handler": "_cmd_moment"}
    assert parsed[("--config", str(tmp_path / "rank.json"), "rank", "--m", "1", "--k", "1")]["verifier"] == "injectivity_rank"
    assert parsed[("rank", "--m", "1", "--k", "1")]["gamma"] == "1/n"
    assert parsed[("normalize", "--universe", "bc", "-1/2*q")]["expr"] == "-1/2*q"
    assert parsed[("normalize", "--universe", "bc", "--", "-1*p")]["expr"] == "-1*p"
    assert parsed[("normalize", "--uni", "bc", "p")]["universe"] == "bc"
    refused = {tuple(argv): json.loads(out)["message"] for argv, code, out, _ in one_command if code == 2}
    assert refused[("lemma-support", "--m", "x", "--k", "1")] == "argument --m: invalid int value: 'x'"
    assert refused[("normalize", "--universe", "bc", "p", "q")] == "unrecognized arguments: q"


def test_cli_benchmark_requests_parse_as_the_full_tree(capsys, monkeypatch):
    # the interactive benchmark's own argvs, recorded from its jobs; bench/ is imported, not written to
    import importlib
    import sys
    from pathlib import Path

    from pqt import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    fresh = [name for name in ("workloads", "oracle") if name not in sys.modules]
    sent = []
    try:
        workloads = importlib.import_module("workloads")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "main", lambda argv: sent.append(list(argv)) or 0)
            for seed in (1, 2):
                for job in workloads.build_interactive(seed):
                    job.run()
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert len(sent) == 2 * sum(workloads.INTERACTIVE_MIX.values())
    assert {argv[0] for argv in sent} == set(workloads.INTERACTIVE_MIX)
    parsed = _parse_both_ways(capsys, monkeypatch, sent)
    assert all(code == 0 and json.loads(out)["command"] == argv[0] for argv, code, out, _ in parsed)


def test_cli_unknown_command_and_top_level_help_see_every_command(capsys):
    # argparse quotes the choices by repr on older interpreters and by str on newer ones
    code, payload = run_cli(capsys, "no-such-command")
    assert code == 2 and set(payload) == {"result", "message"}
    assert payload["message"].replace("'", "") == (
        f"argument command: invalid choice: no-such-command (choose from {', '.join(COMMANDS)})"
    )
    code = main(["-h"])
    out, err = capsys.readouterr()
    assert code == 0 and out == json.dumps({"result": "help", "prog": "pqt"}) + "\n"
    assert "{" + ",".join(COMMANDS) + "}" in err


def test_cli_builds_only_the_parser_it_runs(capsys, monkeypatch, tmp_path):
    from pqt import cli

    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    for argv, parsers in (
        (["normalize", "--universe", "bc", "q"], 1),  # the command's own parser, with no root above it
        (["--config", str(tmp_path / "missing.json"), "rank"], 0),  # the config file is read, and refused, first
        (["rank", "--m", "1", "--k", "1", "-h"], 1),
        (["-h"], 15),
        (["no-such-command"], 15),
        ([], 15),
    ):
        built.clear()
        main(argv)
        capsys.readouterr()
        assert len(built) == parsers, (argv, built)


def test_cli_calls_share_no_parser_state(capsys, tmp_path):
    # one call's config file sets flag defaults for that call only
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"z": "1/3"}))
    code, payload = run_cli(capsys, "moment", "--config", str(cfg), "t1")
    assert code == 0 and payload["result"] == "1/3"
    code, payload = run_cli(capsys, "moment", "t1")
    assert code == 0 and payload["result"] == "1/2"
    cfg.write_text(json.dumps({"side": "right"}))
    code, payload = run_cli(capsys, "inv-search", "--config", str(cfg), "--universe", "bc", "--m", "1", "p")
    assert code == 0 and payload["solution"] == "1*q"
    code, payload = run_cli(capsys, "inv-search", "--universe", "bc", "--m", "1", "p")
    assert (code, payload) == (2, {"result": "error", "message": "the following arguments are required: --side"})


def test_cli_numbers_over_the_digit_limit_exit_three(capsys):
    import sys

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts ints of any length")

    def over(digits):
        return {"result": "error", "message": (
            f"a number of {digits} digits exceeds the interpreter's limit of {limit} digits for integer string conversion")}

    big = "9" * (limit + 700)
    assert run_cli(capsys, "normalize", "--universe", "bc", f"{big}*p") == (3, over(limit + 700))
    assert run_cli(capsys, "normalize", "--universe", "bcs", f"1/2+1/{big}i*p") == (3, over(limit + 700))
    assert run_cli(capsys, "normalize", "--universe", "sinf", f"t{big}") == (3, over(limit + 700))
    # each operand parses, and the product has twice its digits when it is rendered
    half = "9" * (limit // 2 + 400)
    assert run_cli(capsys, "mul", "--universe", "bc", f"{half}*p", f"{half}*q") == (3, over(2 * len(half)))
    # the rational flags count each run of digits, which underscores may join, before parsing
    assert run_cli(capsys, "moment", "--z", big, "t1") == (3, over(limit + 700))
    assert run_cli(capsys, "gram", "--universe", "sinf", "--m", "1", "--k", "1", "--z", f"1/{big}") == (3, over(limit + 700))
    assert run_cli(capsys, "moment", "--z", f"{half}_{half}", "t1") == (3, over(2 * len(half)))
    assert run_cli(capsys, "phi", "t1", "--gamma", f"const:{big}") == (3, over(limit + 700))
    assert run_cli(capsys, "rank", "--m", "1", "--k", "1", "--gamma", f"const:0.{big}") == (3, over(limit + 700))
    # a malformed value is still a usage error
    assert run_cli(capsys, "moment", "--z", "1/2/3", "t1") == (2, {"result": "error", "message": "Invalid literal for Fraction: '1/2/3'"})
    assert run_cli(capsys, "phi", "t1", "--gamma", "const:1/2/3") == (2, {"result": "error", "message": "Invalid literal for Fraction: '1/2/3'"})
    # just under the limit, a scalar parses and renders, negative and imaginary parts included
    most = "9" * limit
    code, payload = run_cli(capsys, "normalize", "--universe", "bc", f"-{most}/7+{most}i*p")
    assert code == 0 and payload["result"] == f"-{most}/7+{most}i*p"
    code, payload = run_cli(capsys, "moment", "--z", f"1/{most}", "t1")
    assert code == 0 and payload["result"] == f"1/{most}"
    code, payload = run_cli(capsys, "phi", "t1", "--gamma", f"const:{most}")
    assert code == 0 and payload["result"] == f"1*p + {most}*t1"
