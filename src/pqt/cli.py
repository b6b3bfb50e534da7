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
from .algebra import Element, GaussianRational, ONE, _collect
from .embedding import (
    Embedding,
    GammaSequence,
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
from .oper import RepConfig, boundary_exactness_check, convergence_report

_SCALAR_RE = re.compile(r"(?P<re>[+-]?\d+(?:/\d+)?)(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)i)?")
_TGEN_RE = re.compile(r"t(\d+)(\*)?\Z")

_WORD_GENS = {
    W.BC: ("p", "q"),
    W.SINF: ("t",),
    W.BCS: ("p", "q", "t"),
    W.F2: ("x", "y", "x-", "y-"),
}


def _parse_scalar_text(text: str, pos: int) -> GaussianRational:
    m = _SCALAR_RE.fullmatch(text)
    if not m:
        raise ExprSyntaxError(f"bad scalar {text!r}", pos)
    try:
        re_part = Fraction(m.group("re"))
        im_part = Fraction(0)
        if m.group("im"):
            im_part = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im_part = -im_part
    except ZeroDivisionError:
        raise ExprSyntaxError(f"zero denominator in scalar {text!r}", pos)
    return GaussianRational(re_part, im_part)


def _parse_gen(tok: str, universe: str, pos: int):
    if universe in (W.BC, W.BCS):
        if tok == "p":
            return W.P
        if tok == "q":
            return W.Q
    if universe in (W.SINF, W.BCS):
        m = _TGEN_RE.fullmatch(tok)
        if m:
            index = int(m.group(1))
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


def _build_word(gens: list, universe: str):
    if universe == W.BC:
        out = W.BC_IDENTITY
        for g in gens:
            out = W.bc_mul(out, g)
        return out
    if universe == W.SINF:
        return tuple(gens)
    if universe == W.BCS:
        return W.normalize_items(gens)
    return W.fg_normalize(gens)


def _chunks(text: str) -> list:
    return [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]


def parse_word(text: str, universe: str):
    """Parse a single word (no scalars, no sums)."""
    chunks = _chunks(text)
    if not chunks:
        raise ExprSyntaxError("empty word", 0)
    if len(chunks) == 1 and chunks[0][0] == "e":
        return W.identity_word(universe)
    gens = []
    for tok, pos in chunks:
        if tok == "e":
            raise ExprSyntaxError("'e' stands alone; it cannot be mixed with generators", pos)
        gens.append(_parse_gen(tok, universe, pos))
    return _build_word(gens, universe)


def parse_element(text: str, universe: str) -> Element:
    """Parse a linear combination of words over the given universe."""
    if universe not in W.UNIVERSES:
        raise ValueError(f"unknown universe {universe!r}")
    chunks = _chunks(text)
    if not chunks:
        raise ExprSyntaxError("empty expression", 0)

    pairs: list = []
    i = 0
    sign = 1
    first = True
    while i < len(chunks):
        if not first:
            tok, pos = chunks[i]
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise ExprSyntaxError(f"expected '+' or '-' between terms, found {tok!r}", pos)
            i += 1
            if i == len(chunks):
                raise ExprSyntaxError("dangling operator at end of expression", pos)
        first = False

        tok, pos = chunks[i]
        scalar = ONE
        if tok[0].isdigit() or (tok[0] in "+-" and len(tok) > 1 and tok[1].isdigit()):
            m = _SCALAR_RE.match(tok)
            rest = tok[m.end():]
            if not rest.startswith("*") or len(rest) < 2:
                raise ExprSyntaxError(f"scalar must be glued to a generator with '*', as in '1/2*t1' (got {tok!r})", pos)
            scalar = _parse_scalar_text(tok[: m.end()], pos)
            tok = rest[1:]

        gens = []
        if tok == "e":
            word_done = True
        else:
            gens.append(_parse_gen(tok, universe, pos))
            word_done = False
        i += 1
        while not word_done and i < len(chunks) and chunks[i][0] not in ("+", "-"):
            tok, pos = chunks[i]
            if tok == "e":
                raise ExprSyntaxError("'e' stands alone; it cannot be mixed with generators", pos)
            gens.append(_parse_gen(tok, universe, pos))
            i += 1

        word = W.identity_word(universe) if not gens else _build_word(gens, universe)
        pairs.append((word, scalar * sign))
    return Element._raw(universe, _collect(pairs))


# -- command handlers -----------------------------------------------------------


def _state_config(args) -> StateConfig:
    if getattr(args, "vacuum", False):
        return StateConfig(s_state=Vacuum())
    return StateConfig(s_state=Character(Fraction(args.z)))


def _gamma(args) -> GammaSequence:
    return gamma_by_name(args.gamma)


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
    emb = Embedding(_gamma(args))
    return {"command": "phi", "gamma": emb.gamma.name, "result": emb.apply(el).render()}, 0


def _cmd_lemma_support(args):
    report = verify_support_bound(args.m, args.k, _gamma(args))
    return report.to_dict(), 0 if report.passed else 1


def _cmd_lemma_coord(args):
    report = verify_coordinate_separation(args.m, args.k, _gamma(args))
    return report.to_dict(), 0 if report.passed else 1


def _cmd_rank(args):
    report = injectivity_rank(args.m, args.k, _gamma(args))
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
    if args.words:
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
    _check_dim(args.dim)
    report = convergence_report(args.count, RepConfig(dim=args.dim, max_index=max(args.count, 1)))
    return report.to_dict(), 0


def _cmd_boundary_check(args):
    _check_dim(args.dim)
    report = boundary_exactness_check(args.window, RepConfig(dim=args.dim))
    return report.to_dict(), 0 if report.passed else 1


# -- parser / dispatch ------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # an expression may open with a negative scalar, as in '-1/2*q'
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
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
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
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
    dests = {action.dest for action in sub._actions}
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


def _build() -> tuple:
    parser = _Parser(prog="pqt", description="Exact workbench for bicyclic/free *-monoid algebras")
    subcommands = parser.add_subparsers(dest="command", required=True)
    table = {}

    def new(name, **kw):
        table[name] = subcommands.add_parser(name, **kw)
        return table[name]

    sub = new("normalize", help="parse and canonically render an element")
    _add_universe(sub)
    sub.add_argument("expr")
    sub.set_defaults(handler=_cmd_normalize)

    sub = new("mul", help="multiply two elements")
    _add_universe(sub)
    sub.add_argument("left")
    sub.add_argument("right")
    sub.set_defaults(handler=_cmd_mul)

    sub = new("star", help="involution of an element")
    _add_universe(sub)
    sub.add_argument("expr")
    sub.set_defaults(handler=_cmd_star)

    sub = new("coord", help="coefficient of an element at a word")
    _add_universe(sub)
    sub.add_argument("expr")
    sub.add_argument("--word", required=True)
    sub.set_defaults(handler=_cmd_coord)

    sub = new("phi", help="apply the weighted embedding to a free-monoid element")
    sub.add_argument("expr")
    sub.add_argument("--gamma", default="1/n")
    sub.set_defaults(handler=_cmd_phi)

    for name, handler in (
        ("lemma-support", _cmd_lemma_support),
        ("lemma-coord", _cmd_lemma_coord),
        ("rank", _cmd_rank),
    ):
        sub = new(name, help=f"run the {name} verifier")
        sub.add_argument("--m", type=int, required=True)
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("--gamma", default="1/n")
        sub.set_defaults(handler=handler)

    sub = new("inv-search", help="length-bounded one-sided inverse search")
    _add_universe(sub)
    sub.add_argument("expr")
    sub.add_argument("--side", required=True, choices=("left", "right"))
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--k-extra", type=int, default=0)
    sub.set_defaults(handler=_cmd_inv_search)

    sub = new("moment", help="state moment of an element")
    _add_universe(sub, default=W.BCS, choices=(W.BC, W.SINF, W.BCS))
    sub.add_argument("expr")
    _add_state_flags(sub)
    sub.set_defaults(handler=_cmd_moment)

    sub = new("gram", help="exact PSD check of a state gram matrix")
    _add_universe(sub, default=W.BCS, choices=(W.BC, W.SINF, W.BCS))
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--words", help="explicit ';'-separated word list instead of an enumeration")
    _add_state_flags(sub)
    sub.set_defaults(handler=_cmd_gram)

    sub = new("trace", help="trace of a free-group algebra element")
    sub.add_argument("expr")
    sub.set_defaults(handler=_cmd_trace)

    sub = new("rep-report", help="norm convergence table for the truncated representation")
    sub.add_argument("--count", type=int, default=20, help="report rows for n = 1..count")
    sub.add_argument("--dim", type=int, default=256)
    sub.set_defaults(handler=_cmd_rep_report)

    sub = new("boundary-check", help="interior exactness of the truncated shifts")
    sub.add_argument("--window", type=int, default=4)
    sub.add_argument("--dim", type=int, default=256)
    sub.set_defaults(handler=_cmd_boundary_check)

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
    parser, table = _build()
    try:
        argv, config = _extract_config(argv)
        if config:
            _apply_config(table, argv, config)
        args = parser.parse_args(argv)
    except _UsageError as e:
        _emit({"result": "error", "message": str(e)})
        print(f"usage error: {e}", file=sys.stderr)
        return 2
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
