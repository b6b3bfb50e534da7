"""Command-line front end: expression parsing, dispatch, JSON reporting.

Grammar (tokens are whitespace-separated; the scalar, when present, is
glued to the first generator of its term with ``*``):

    element := term (('+'|'-') term)*
    term    := [scalar '*']? word
    word    := 'e' | gen+
    gen     := 'p' | 'q' | 't'NUM['*'] | 'x' | 'y' | 'x-' | 'y-'
    scalar  := INT['/'INT][('+'|'-')INT['/'INT]'i']

Machine-readable JSON goes to stdout on every path, including errors;
anything meant for humans goes to stderr.  Exit codes: 0 success/pass,
1 property violated or infeasible-as-answer, 2 usage/parse error,
3 resource limit, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from fractions import Fraction

from .errors import ExprSyntaxError, LimitExceeded, UniverseMismatch
from . import words as W
from .algebra import Element, GaussianRational, ONE, _collect, _over_digit_limit, _parse_fraction
from .embedding import (
    Embedding,
    gamma_by_name,
    injectivity_rank,
    inverse_search,
    verify_coordinate_separation,
    verify_support_bound,
)
from .states import (
    Character,
    FreeProductState,
    StateConfig,
    Vacuum,
    gram_psd_check,
    trace_f2,
)

# ASCII: the grammar's INT and NUM are ASCII digits, and \d would match any Unicode digit
_SCALAR_RE = re.compile(r"(?P<re>[+-]?\d+(?:/\d+)?)(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)i)?", re.ASCII)
_TGEN_RE = re.compile(r"t(\d+)(\*)?\Z", re.ASCII)

_WORD_GENS = {
    W.BC: ("p", "q"),
    W.SINF: ("t",),
    W.BCS: ("p", "q", "t"),
    W.F2: ("x", "y", "x-", "y-"),
}


def _parse_gen(tok: str, universe: str, pos: int):
    if universe in (W.BC, W.BCS):
        if tok == "p":
            return W.P
        if tok == "q":
            return W.Q
    if universe in (W.SINF, W.BCS):
        m = _TGEN_RE.fullmatch(tok)
        if m:
            try:
                index = int(m.group(1))
            except ValueError:  # only the interpreter's digit limit refuses a run of digits
                raise _over_digit_limit(len(m.group(1))) from None
            if index < 1:
                raise ExprSyntaxError(f"generator index must be >= 1 in {tok!r}", pos)
            return W.FreeGen(index, m.group(2) is not None)
    if universe == W.F2:
        if tok in ("x", "y"):
            return (tok, 1)
        if tok in ("x-", "y-"):
            return (tok[0], -1)
    allowed = ", ".join(_WORD_GENS[universe])
    raise ExprSyntaxError(f"token {tok!r} is not a generator of universe {universe!r} (allowed: {allowed})", pos)


def _chunks(text: str, universe: str) -> list:
    W._check_universe(universe)  # before any syntax error, so an unknown universe fails one way
    return [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]


def _word(chunks: list, universe: str):
    """The word spelled by (token, position) chunks, in the universe's normal form."""
    gens = []
    for tok, pos in chunks:
        if tok != "e":
            gens.append(_parse_gen(tok, universe, pos))
        elif len(chunks) > 1:
            raise ExprSyntaxError("'e' stands alone; it cannot be mixed with generators", pos)
    return W.normal_form(universe, gens)


def parse_word(text: str, universe: str):
    """Parse a single word (no scalars, no sums)."""
    chunks = _chunks(text, universe)
    if not chunks:
        raise ExprSyntaxError("empty word", 0)
    return _word(chunks, universe)


def parse_element(text: str, universe: str) -> Element:
    """Parse a linear combination of words over the given universe."""
    chunks = _chunks(text, universe)
    if not chunks:
        raise ExprSyntaxError("empty expression", 0)
    pairs: list = []
    i, sign = 0, 1
    while True:
        tok, pos = chunks[i]
        scalar = ONE
        m = _SCALAR_RE.match(tok)
        if m:
            rest = tok[m.end():]
            if not rest.startswith("*") or len(rest) < 2:
                raise ExprSyntaxError(f"scalar must be glued to a generator with '*', as in '1/2*t1' (got {tok!r})", pos)
            try:
                scalar = GaussianRational(Fraction(m["re"]), Fraction((m["sign"] or "") + (m["im"] or "0")))
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator in scalar {tok[: m.end()]!r}", pos)
            except ValueError:  # only the interpreter's digit limit refuses a scalar the pattern matched
                raise _over_digit_limit(max(map(len, re.findall("[0-9]+", tok[: m.end()])))) from None
            tok = rest[1:]
        # a term is its first token and, unless that is 'e', the tokens up to the next operator
        end = i + 1
        while tok != "e" and end < len(chunks) and chunks[end][0] not in ("+", "-"):
            end += 1
        pairs.append((_word([(tok, pos)] + chunks[i + 1 : end], universe), scalar * sign))
        if end == len(chunks):
            return Element._raw(universe, _collect(pairs))
        tok, pos = chunks[end]
        if tok not in ("+", "-"):
            raise ExprSyntaxError(f"expected '+' or '-' between terms, found {tok!r}", pos)
        if end + 1 == len(chunks):
            raise ExprSyntaxError("dangling operator at end of expression", pos)
        i, sign = end + 1, 1 if tok == "+" else -1


# -- command handlers -----------------------------------------------------------


def _state_config(args) -> StateConfig:
    if args.vacuum:
        return StateConfig(s_state=Vacuum())
    try:
        z = _parse_fraction(args.z)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in --z value {args.z!r}")
    return StateConfig(s_state=Character(z))


def _cmd_normalize(args):
    el = parse_element(args.expr, args.universe)
    return {"command": "normalize", "result": el.render()}, 0


def _cmd_mul(args):
    a = parse_element(args.left, args.universe)
    b = parse_element(args.right, args.universe)
    return {"command": "mul", "result": (a * b).render()}, 0


def _cmd_star(args):
    el = parse_element(args.expr, args.universe)
    return {"command": "star", "result": el.star().render()}, 0


def _cmd_coord(args):
    el = parse_element(args.expr, args.universe)
    word = parse_word(args.word, args.universe)
    return {"command": "coord", "result": str(el.coordinate(word))}, 0


def _cmd_phi(args):
    el = parse_element(args.expr, W.SINF)
    # the image of a word w has at most 2^|w| terms, one per letter choice
    bound = sum(2 ** len(w) for w in el.terms)
    if bound > W.DEFAULT_ENUMERATION_LIMIT:
        raise LimitExceeded(f"image may have {bound} terms (limit {W.DEFAULT_ENUMERATION_LIMIT})")
    emb = Embedding(gamma_by_name(args.gamma))
    return {"command": "phi", "gamma": emb.gamma.name, "result": emb.apply(el).render()}, 0


def _cmd_verifier(args):
    report = args.verifier(args.m, args.k, gamma_by_name(args.gamma))
    return report.to_dict(), 0 if report.passed else 1


def _cmd_inv_search(args):
    el = parse_element(args.expr, args.universe)
    result = inverse_search(el, args.side, args.m, k_extra=args.k_extra)
    return result.to_dict(), 0 if result.found else 1


def _cmd_moment(args):
    el = parse_element(args.expr, args.universe)
    state = FreeProductState(_state_config(args))
    value = state.moment(el)
    return {"command": "moment", "state_config": state.cfg.describe(), "result": str(value)}, 0


def _cmd_gram(args):
    cfg = _state_config(args)
    if args.words is not None:
        words = [parse_word(part, args.universe) for part in args.words.split(";") if part.strip()]
    else:
        words = W.enumerate_words(args.m, args.k, args.universe)
    report = gram_psd_check(args.universe, words, cfg)
    return report.to_dict(), 0 if report.psd else 1


def _cmd_trace(args):
    el = parse_element(args.expr, W.F2)
    return {"command": "trace", "result": str(trace_f2(el))}, 0


def _check_dim(dim: int) -> None:
    # each d x d matrix of the shift representation holds d^2 complex cells
    if dim**2 > W.DEFAULT_MAX_CELLS:
        raise LimitExceeded(f"dim {dim} gives {dim}x{dim} matrices, over max_cells={W.DEFAULT_MAX_CELLS}")


def _cmd_rep_report(args):
    from .oper import RepConfig, convergence_report  # numpy loads only for the two float commands

    _check_dim(args.dim)
    report = convergence_report(args.count, RepConfig(dim=args.dim))
    return report.to_dict(), 0


def _cmd_boundary_check(args):
    from .oper import RepConfig, boundary_exactness_check

    _check_dim(args.dim)
    report = boundary_exactness_check(args.window, RepConfig(dim=args.dim))
    return report.to_dict(), 0 if report.passed else 1


# -- parser / dispatch ------------------------------------------------------------


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    # --help: the text goes to stderr, and stdout keeps its one JSON object
    def print_help(self, file=None):
        super().print_help(sys.stderr if file is None else file)

    def exit(self, status=0, message=None):
        raise _HelpRequested(self.prog)

    def _parse_optional(self, arg_string):
        # an expression may open with a negative scalar, as in '-1/2*q'
        if arg_string[:1] == "-" and _SCALAR_RE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _extract_config(argv: list) -> tuple:
    """Pull an optional ``--config FILE`` out of argv and load it as JSON."""
    argv = list(argv)
    config = {}
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise _UsageError("--config needs a file argument")
            path = argv[i + 1]
            del argv[i : i + 2]
            break
        if tok.startswith("--config="):
            path = tok[len("--config="):]
            del argv[i]
            break
    else:
        return argv, config
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    # ValueError covers bad JSON, bad UTF-8 and the digit limit; deep nesting raises RecursionError
    except (OSError, ValueError, RecursionError) as e:
        raise _UsageError(f"cannot read config {path!r}: {e}")
    if not isinstance(config, dict):
        raise _UsageError("config file must hold a JSON object of flag values")
    return argv, config


def _check_config_value(action, key: str, value) -> None:
    if isinstance(action, argparse._StoreTrueAction):
        ok, kind = isinstance(value, bool), "true or false"
    elif action.type is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise _UsageError(f"config value for {key!r} must be {kind}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise _UsageError(f"config value for {key!r} must be one of {choices}, got {value!r}")


def _apply_config(subparsers: dict, argv: list, config: dict) -> None:
    # config keys mirror the long flag names of the chosen command, whose
    # name is the first positional token; values must already be final-typed,
    # and a key naming no argument of the command is refused
    sub = subparsers.get(next((tok for tok in argv if not tok.startswith("-")), None))
    if sub is None:
        return  # argparse reports the missing or unknown command
    normalized = {key.replace("-", "_"): (key, value) for key, value in config.items()}
    dests = {action.dest for action in sub._actions if not isinstance(action, argparse._HelpAction)}
    unknown = [key for dest, (key, _) in normalized.items() if dest not in dests]
    if unknown:  # as argparse refuses an unknown flag
        raise _UsageError(f"unrecognized config keys: {', '.join(unknown)}")
    for action in sub._actions:
        if action.dest in normalized:
            key, value = normalized[action.dest]
            _check_config_value(action, key, value)
            action.default = value
            action.required = False


def _add_universe(sub, default=None, choices=W.UNIVERSES):
    if default is None:
        sub.add_argument("--universe", required=True, choices=choices)
    else:
        sub.add_argument("--universe", default=default, choices=choices)


def _add_state_flags(sub):
    sub.add_argument("--z", default="1/2", help="character value for the free-monoid state (rational)")
    sub.add_argument("--vacuum", action="store_true", help="use the vacuum instead of a character")


# Each function below adds one command's arguments and its handler. The handler
# and verifier names are read when it runs, not bound at import, so a handler or
# verifier patched on this module after import is the one called.


def _normalize_args(sub):
    _add_universe(sub)
    sub.add_argument("expr")
    sub.set_defaults(handler=_cmd_normalize)


def _mul_args(sub):
    _add_universe(sub)
    sub.add_argument("left")
    sub.add_argument("right")
    sub.set_defaults(handler=_cmd_mul)


def _star_args(sub):
    _add_universe(sub)
    sub.add_argument("expr")
    sub.set_defaults(handler=_cmd_star)


def _coord_args(sub):
    _add_universe(sub)
    sub.add_argument("expr")
    sub.add_argument("--word", required=True)
    sub.set_defaults(handler=_cmd_coord)


def _phi_args(sub):
    sub.add_argument("expr")
    sub.add_argument("--gamma", default="1/n")
    sub.set_defaults(handler=_cmd_phi)


def _verifier_args(verifier: str):
    def add_arguments(sub):
        sub.add_argument("--m", type=int, required=True)
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("--gamma", default="1/n")
        sub.set_defaults(handler=_cmd_verifier, verifier=globals()[verifier])

    return add_arguments


def _inv_search_args(sub):
    _add_universe(sub)
    sub.add_argument("expr")
    sub.add_argument("--side", required=True, choices=("left", "right"))
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--k-extra", type=int, default=0)
    sub.set_defaults(handler=_cmd_inv_search)


def _moment_args(sub):
    _add_universe(sub, default=W.BCS, choices=(W.BC, W.SINF, W.BCS))
    sub.add_argument("expr")
    _add_state_flags(sub)
    sub.set_defaults(handler=_cmd_moment)


def _gram_args(sub):
    _add_universe(sub, default=W.BCS, choices=(W.BC, W.SINF, W.BCS))
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--words", help="explicit ';'-separated word list instead of an enumeration")
    _add_state_flags(sub)
    sub.set_defaults(handler=_cmd_gram)


def _trace_args(sub):
    sub.add_argument("expr")
    sub.set_defaults(handler=_cmd_trace)


def _rep_report_args(sub):
    sub.add_argument("--count", type=int, default=20, help="report rows for n = 1..count")
    sub.add_argument("--dim", type=int, default=256)
    sub.set_defaults(handler=_cmd_rep_report)


def _boundary_check_args(sub):
    sub.add_argument("--window", type=int, default=4)
    sub.add_argument("--dim", type=int, default=256)
    sub.set_defaults(handler=_cmd_boundary_check)


# command name -> (help, add_arguments), in the order `pqt -h` lists them
_COMMANDS = {
    "normalize": ("parse and canonically render an element", _normalize_args),
    "mul": ("multiply two elements", _mul_args),
    "star": ("involution of an element", _star_args),
    "coord": ("coefficient of an element at a word", _coord_args),
    "phi": ("apply the weighted embedding to a free-monoid element", _phi_args),
    "lemma-support": ("run the lemma-support verifier", _verifier_args("verify_support_bound")),
    "lemma-coord": ("run the lemma-coord verifier", _verifier_args("verify_coordinate_separation")),
    "rank": ("run the rank verifier", _verifier_args("injectivity_rank")),
    "inv-search": ("length-bounded one-sided inverse search", _inv_search_args),
    "moment": ("state moment of an element", _moment_args),
    "gram": ("exact PSD check of a state gram matrix", _gram_args),
    "trace": ("trace of a free-group algebra element", _trace_args),
    "rep-report": ("norm convergence table for the truncated representation", _rep_report_args),
    "boundary-check": ("interior exactness of the truncated shifts", _boundary_check_args),
}


def _build(command=None) -> tuple:
    """The parser to run and a name -> command parser table, in two shapes.

    When ``command`` names one of the 14 commands, the parser is that
    command's own, ``pqt <command>``, and the table holds it alone: it parses
    what follows the name.  Otherwise (``-h``, an unknown command, an empty
    argv) the parser is the full ``pqt`` tree, whose subparsers list every
    command.  A flat parser reports the same messages and the same ``prog``
    as the subparser it stands for, since ``_Parser.error`` and
    ``_Parser.exit`` report only those.

    Built per call and never cached: a kept parser would carry one call's
    ``--config`` defaults (``_apply_config`` writes ``action.default`` and
    ``action.required``) into the next, would keep handlers and verifiers
    patched out since it was built, and its throughput would push the
    ``interactive`` benchmark's peak RSS over its bound (ROADMAP item 5).
    """
    if command in _COMMANDS:
        parser = _Parser(prog=f"pqt {command}")
        _COMMANDS[command][1](parser)
        return parser, {command: parser}
    parser = _Parser(prog="pqt", description="Exact workbench for bicyclic/free *-monoid algebras")
    subcommands = parser.add_subparsers(dest="command", required=True)
    table = {}
    for name, (help_text, add_arguments) in _COMMANDS.items():
        table[name] = subcommands.add_parser(name, help=help_text)
        add_arguments(table[name])
    return parser, table


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def main(argv=None) -> int:
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    except Exception as e:  # a defect, not a verdict: keep JSON on stdout, and not exit 1
        _emit({"result": "error", "message": f"{type(e).__name__}: {e}"})
        traceback.print_exc()
        return 4


def _main(argv: list) -> int:
    try:
        argv, config = _extract_config(argv)
        # the top-level parser has no option but -h, so a command can only be reached as argv[0]
        command = argv[0] if argv else None
        parser, table = _build(command)
        if config:
            _apply_config(table, argv, config)
        if parser is table.get(command):  # the command's own parser: it parses what follows the name
            args = parser.parse_args(argv[1:], argparse.Namespace(command=command))
        else:
            args = parser.parse_args(argv)
    except _UsageError as e:
        _emit({"result": "error", "message": str(e)})
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except _HelpRequested as e:
        _emit({"result": "help", "prog": str(e)})
        return 0
    try:
        payload, code = args.handler(args)
    except ExprSyntaxError as e:
        _emit({"result": "error", "message": str(e), "position": e.position})
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (UniverseMismatch, ValueError, ZeroDivisionError) as e:
        _emit({"result": "error", "message": str(e)})
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LimitExceeded as e:
        _emit({"result": "error", "message": str(e)})
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
