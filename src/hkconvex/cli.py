"""Command-line frontend over the library.

Every subcommand reads JSON files, writes one JSON document to standard
output (keys sorted, rationals in lowest terms, arrays in canonical
order, so output is byte-stable for fixed inputs and seed), and reserves
standard error for human-readable diagnostics.  Exit status: 0 on
success, 1 on domain errors (with a machine-readable error document on
standard output), 2 on usage errors.

Convex sets are accepted either as {"generators": [dist, ...]} or as a
bare list of distribution objects; output always uses the object form
with the unique base in canonical order.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .convex import ConvexSet, _generator_entries, monad_mult, oplus, plus_p
from .core import Dist, FiniteMetricSpace, as_fraction, format_fraction
from .deduction import (
    check_derivation,
    derivation_from_json_dict,
    derivation_to_json_text,
    equations_from_json_list,
)
from .errors import DomainError, FileNotFound, MalformedInput, ParseError, TooDeep
from .lifting import _hausdorff_directions, _hk_directions
from .presentation import (
    check_monad_laws,
    free_em_algebra,
    functor_F,
    roundtrip_FG,
    roundtrip_GF,
)
from .proofs import derive_hk
from .syntax import parse_term, print_term
from .terms import normalize, nu, term_distance
from .transport import kantorovich


# A JSON string, or an integer literal that is not part of a float.
_JSON_INT = re.compile(r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])(-?\d+)(?![\w.])')


def _load_json(path: str):
    """The JSON document in a file. A file that cannot be read as UTF-8
    text, or that is not JSON, raises a DomainError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError as exc:
        raise FileNotFound(str(exc)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read {path} as UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", exc.pos) from exc
    except ValueError as exc:
        # json refuses an integer literal past Python's digit limit for
        # int(str); report where the first such literal starts.
        limit = sys.get_int_max_str_digits()
        at = next(
            (
                m.start()
                for m in _JSON_INT.finditer(text)
                if m.group(1) and len(m.group(1).lstrip("-")) > limit
            ),
            None,
        )
        if at is None:
            raise
        message = f"invalid JSON in {path}: integer literal over {limit} digits"
        raise ParseError(message, at) from exc


def _load_dist(space: FiniteMetricSpace, path: str) -> Dist:
    return Dist.from_json_dict(space, _load_json(path))


def _load_dists(space: FiniteMetricSpace, path: str) -> list[Dist]:
    entries = _generator_entries(_load_json(path))
    return [Dist.from_json_dict(space, entry) for entry in entries]


def _load_set(space: FiniteMetricSpace, path: str) -> ConvexSet:
    return ConvexSet.from_json_dict(space, _load_json(path))


def _load_nested(space: FiniteMetricSpace, path: str) -> ConvexSet:
    """Set of distributions over convex sets.

    Format: {"generators": [[[convex-set, "p"], ...], ...]} where each
    outer entry is one distribution, given as weighted convex-set pairs.
    """
    gens = []
    for entry in _generator_entries(_load_json(path)):
        if not isinstance(entry, list):
            raise MalformedInput(f"nested generator {entry!r} is not a list of pairs")
        weights: dict = {}
        for pair in entry:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise MalformedInput(f"nested generator entry {pair!r} is not [set, weight]")
            set_data, raw_w = pair
            inner = ConvexSet.from_json_dict(space, set_data)
            weights[inner] = weights.get(inner, 0) + as_fraction(raw_w)
        gens.append(Dist(space, weights))
    return ConvexSet(space, gens)


def _emit(obj) -> int:
    """Print one reply document; returns 0, the exit status of success."""
    print(json.dumps(obj, sort_keys=True))
    return 0


def _cmd_validate_space(args, space) -> int:
    return _emit(space.to_json_dict())


def _cmd_kantorovich(args, space) -> int:
    result = kantorovich(space, _load_dist(space, args.left), _load_dist(space, args.right))
    return _emit(
        {
            "value": format_fraction(result.value),
            "witness": result.witness.to_json_list(),
        }
    )


def _cmd_hausdorff(args, space) -> int:
    left = _load_dists(space, args.left)
    right = _load_dists(space, args.right)

    def metric(a, b):
        return kantorovich(space, a, b).value

    return _emit_directions(*_hausdorff_directions(metric, left, right))


def _cmd_hk(args, space) -> int:
    left = _load_set(space, args.left)
    right = _load_set(space, args.right)
    return _emit_directions(*_hk_directions(space, left, right))


def _emit_directions(ltr, rtl) -> int:
    """Print both directed distances and their maximum, the distance."""
    return _emit(
        {
            "left_to_right": format_fraction(ltr),
            "right_to_left": format_fraction(rtl),
            "value": format_fraction(max(ltr, rtl)),
        }
    )


def _cmd_base(args, space) -> int:
    return _emit(_load_set(space, args.set).to_json_dict())


def _cmd_normalize(args, space) -> int:
    s = normalize(space, parse_term(args.term))
    return _emit({"set": s.to_json_dict(), "term": print_term(nu(space, s))})


def _cmd_nu(args, space) -> int:
    return _emit({"term": print_term(nu(space, _load_set(space, args.set)))})


def _cmd_tdist(args, space) -> int:
    value = term_distance(space, parse_term(args.left), parse_term(args.right))
    return _emit({"value": format_fraction(value)})


def _cmd_oplus(args, space) -> int:
    result = oplus(_load_set(space, args.left), _load_set(space, args.right))
    return _emit(result.to_json_dict())


def _cmd_plusp(args, space) -> int:
    p = as_fraction(args.p)
    result = plus_p(p, _load_set(space, args.left), _load_set(space, args.right))
    return _emit(result.to_json_dict())


def _cmd_mu(args, space) -> int:
    return _emit(monad_mult(_load_nested(space, args.set)).to_json_dict())


def _cmd_derive(args, space) -> int:
    d = derive_hk(space, _load_set(space, args.left), _load_set(space, args.right))
    print(derivation_to_json_text(d))
    return 0


def _cmd_check(args, space) -> int:
    # One table for both files: each distinct term text is read once.
    table: dict = {}
    gamma = equations_from_json_list(_load_json(args.gamma), table)
    proof = derivation_from_json_dict(_load_json(args.proof), table)
    result = check_derivation(gamma, proof)
    _emit({"ok": result.ok, "path": list(result.path), "reason": result.reason})
    if not result.ok:
        print(f"invalid at node {list(result.path)}: {result.reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_laws(args, space) -> int:
    return _emit(check_monad_laws(args.seed, args.trials).to_json_dict())


def _cmd_roundtrip(args, space) -> int:
    em = free_em_algebra(space)
    gf = roundtrip_GF(em, args.samples, args.seed)
    fg = roundtrip_FG(functor_F(em), args.samples, args.seed)
    return _emit({"fg": fg.to_json_dict(), "gf": gf.to_json_dict()})


def _count(text: str) -> int:
    """argparse type of a trial or sample count: an int, at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an int, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged, and building it costs dozens of
    add_argument calls."""
    parser = argparse.ArgumentParser(
        prog="hkconvex",
        description="Exact convex sets of distributions over finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--space", required=True, help="metric space JSON file")
        return p

    add("validate-space", _cmd_validate_space, "check metric axioms, echo canonical form")

    p = add("kantorovich", _cmd_kantorovich, "optimal transport distance and witness")
    p.add_argument("--left", required=True, help="distribution JSON file")
    p.add_argument("--right", required=True, help="distribution JSON file")

    p = add("hausdorff", _cmd_hausdorff, "Hausdorff distance between two families of distributions")
    p.add_argument("--left", required=True, help="list of distributions JSON file")
    p.add_argument("--right", required=True, help="list of distributions JSON file")

    p = add("hk", _cmd_hk, "Hausdorff-Kantorovich distance between convex sets")
    p.add_argument("--left", required=True, help="convex set JSON file")
    p.add_argument("--right", required=True, help="convex set JSON file")

    p = add("base", _cmd_base, "unique base (extreme points) of a convex set")
    p.add_argument("--set", required=True, help="convex set JSON file")

    p = add("normalize", _cmd_normalize, "interpret a term as a convex set")
    p.add_argument("--term", required=True, help="term, e.g. \"(oplus a (p+ 1/2 a b))\"")

    p = add("nu", _cmd_nu, "canonical term of a convex set")
    p.add_argument("--set", required=True, help="convex set JSON file")

    p = add("tdist", _cmd_tdist, "distance between two terms")
    p.add_argument("left", help="first term")
    p.add_argument("right", help="second term")

    p = add("oplus", _cmd_oplus, "convex union of two sets")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("plusp", _cmd_plusp, "pointwise p-mixture of two sets")
    p.add_argument("--p", required=True, help="probability, e.g. 1/2")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("mu", _cmd_mu, "flatten a set of distributions over convex sets")
    p.add_argument("--set", required=True, help="nested set JSON file")

    p = add("derive", _cmd_derive, "derivation bounding the distance of two sets")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("check", _cmd_check, "validate a derivation against hypotheses")
    p.add_argument("--gamma", required=True, help="hypothesis equations JSON file")
    p.add_argument("--proof", required=True, help="derivation JSON file")

    p = add("laws", _cmd_laws, "randomized monad-law report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count, default=100)

    p = add("roundtrip", _cmd_roundtrip, "free-algebra round-trips at sampled points")
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _fail(exc: DomainError) -> int:
    _emit(exc.payload())
    print(str(exc), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Every subcommand takes a --space file, and a malformed one is an
        # error even where the subcommand reads no space (check, laws).
        space = FiniteMetricSpace.from_json_dict(_load_json(args.space))
        return args.handler(args, space)
    except DomainError as exc:
        return _fail(exc)
    except RecursionError:
        # Every reader and checker recurses on the nesting of its input.
        return _fail(TooDeep(sys.getrecursionlimit()))


if __name__ == "__main__":
    sys.exit(main())
