"""Command line front end over the instance catalog.

    effhom list
    effhom eval <instance> <diff|h:NAME> <index> <element>
    effhom check <instance> <nilpotency|chain-morphism|reduction|contracting:NAME>
    effhom preimage <instance> <index> <element> --h NAME
    effhom homology <instance> <lo..hi>

Exit codes: 0 success, 1 mathematical failure (law violations, not a
cycle, failed verification), 2 usage errors (bad syntax, membership,
infinite type).

One writer prints every result but a streamed law report, as text or JSON;
one helper turns an unknown catalog name into a usage error; ``eval`` and
``preimage`` share one element path, from the source of the map they apply
to its target.  Each call runs through ``modules._unlimited``, so integers
of any length go in and out.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache, partial

from .complexes import check_chain_morphism, check_nilpotency
from .errors import (
    HomAlgError,
    MembershipError,
    NotACycleError,
    NotFiniteTypeError,
    ParseError,
    PreimageVerificationError,
    ShapeMismatchError,
)
from .grammar import format_element, parse_element
from .homology import homology_window
from .instances import (
    CATALOG,
    HOMOTOPIES,
    resolve_complex,
    resolve_effective_homology,
    resolve_homotopy,
)
from .laws import LawReport
from .modules import _unlimited
from .reduction import DEFAULT_DEGREES, check_contracting, check_reduction_laws, preimage
from .sampling import Sampler

_RANGE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")

#: Widest degree range of ``check`` and ``homology``.  A law report, though
#: printed a degree at a time, writes a line per degree and sample, and a
#: homology window keeps a group per degree before printing; the bound keeps
#: a bad range from running until it is killed.  The default has 17 degrees.
MAX_DEGREES = 10_000

#: Most report lines of one law in ``check``, ``--samples`` times the degrees
#: of ``--degrees`` (about 44 MB); the two bounds alone allow 10^9 lines.
MAX_VERDICTS = 1_000_000

#: Each ``Sampler`` field and the ``check`` option that sets it, in ``--help`` order.
_SAMPLER_OPTIONS = {
    "samples": "--samples",
    "seed": "--seed",
    "coeff_bound": "--coeff-bound",
    "max_support": "--support",
    "max_generator": "--max-gen",
}

_VALUE_OPTIONS = {*_SAMPLER_OPTIONS.values(), "--degrees", "--format", "--h"}


class UsageError(Exception):
    pass


def _ascii_int(text: str) -> int:
    """``int(text)`` of ASCII text only; ``int`` itself reads any Unicode digit."""
    if not text.isascii():
        raise ValueError(f"not ASCII: {text!r}")
    return int(text)


_ascii_int.__name__ = "int"  # argparse's "invalid int value" message names it


def _normalize_argv(argv: list[str]) -> list[str]:
    """Merge valued options into --opt=value form and fence positionals.

    Degree ranges like ``-8..8`` and negative indices would otherwise be
    mistaken for option names by argparse.
    """
    tokens = iter(argv[1:])
    options, positionals = argv[:1], []
    for token in tokens:
        if token == "--":
            positionals.extend(tokens)
        elif token in _VALUE_OPTIONS:  # takes the next token, if there is one
            value = next(tokens, None)
            options.append(token if value is None else f"{token}={value}")
        elif token == "-h" or token.startswith("--"):
            options.append(token)
        else:
            positionals.append(token)
    return options + ["--"] + positionals if positionals else options


def _parse_range(text: str) -> range:
    m = _RANGE.fullmatch(text)
    if m is None:
        raise UsageError(f"expected a degree range like -8..8, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise UsageError(f"empty degree range {text!r}")
    if hi - lo >= MAX_DEGREES:
        raise UsageError(f"degree range {text!r} spans more than {MAX_DEGREES} degrees")
    return range(lo, hi + 1)


def _sampler(args) -> Sampler:
    # argparse keeps each value under its option's name, "-" read as "_"
    values = {
        name: getattr(args, option[2:].replace("-", "_"))
        for name, option in _SAMPLER_OPTIONS.items()
    }
    try:
        return Sampler(**values)
    except ValueError as exc:  # "<field> must be ...": name the field's option
        name, bound = str(exc).split(" ", 1)
        raise UsageError(f"{_SAMPLER_OPTIONS[name]} {bound}") from None


def _lookup(resolve, key: str, message: str):
    """``resolve(key)`` from the catalog; its ``KeyError`` is ``UsageError(message)``."""
    try:
        return resolve(key)
    except KeyError:
        raise UsageError(message) from None


def _complex(ident: str):
    return _lookup(resolve_complex, ident, f"unknown instance {ident!r}; try `effhom list`")


def _homotopy(name: str, cc):
    home, h = _lookup(resolve_homotopy, name, f"unknown homotopy {name!r}; try `effhom list`")
    if h.over is not cc:
        raise UsageError(f"homotopy {name!r} lives over {home!r}, not this instance")
    return h


def _reduction(ident: str, law: str):
    message = f"{law} checks apply to effective-homology instances"
    return _lookup(resolve_effective_homology, ident, message).reduction


def _emit_report(report: LawReport, args) -> int:
    # the writers yield a degree at a time, so the report is never held whole
    pieces = report._json_pieces() if args.format == "json" else report._text_pieces()
    sys.stdout.writelines(pieces)
    return 0 if report.ok else 1


def _emit(args, lines, data, indent=None) -> int:
    """Print ``lines``, or under ``--format json`` the JSON text of ``data``."""
    if args.format == "json":
        print(json.dumps(data, indent=indent))
    else:
        for line in lines:
            print(line)
    return 0


def _emit_element(args, applied, compute) -> int:
    """Print ``compute`` of ``args.element``, read in ``applied.source``, in ``applied.target``."""
    element = parse_element(args.element, applied.source)
    text = format_element(compute(element), applied.target)
    return _emit(args, [text], {"result": text})


def cmd_list(args) -> int:
    instances = [
        {"id": e.ident, "kind": e.kind, "summary": e.summary} for e in CATALOG.values()
    ]
    homotopies = [
        {"id": name, "over": home, "summary": summary}
        for name, (home, _, summary) in HOMOTOPIES.items()
    ]
    lines = [f"{e['id']:<22} {e['kind']:<20} {e['summary']}" for e in instances]
    lines += [
        f"{h['id']:<22} {'homotopy':<20} {h['summary']} (over {h['over']})" for h in homotopies
    ]
    return _emit(args, lines, {"instances": instances, "homotopies": homotopies}, indent=2)


def cmd_eval(args) -> int:
    cc = _complex(args.instance)
    if args.operator == "diff":
        morphism = cc.diff_at(args.index)
    elif args.operator.startswith("h:"):
        morphism = _homotopy(args.operator.partition(":")[2], cc).at(args.index)
    else:
        raise UsageError(f"operator must be 'diff' or 'h:NAME', got {args.operator!r}")
    return _emit_element(args, morphism, morphism)


def cmd_check(args) -> int:
    sampler = _sampler(args)
    degrees = _parse_range(args.degrees)
    if (verdicts := sampler.samples * len(degrees)) > MAX_VERDICTS:
        raise UsageError(
            f"--samples {sampler.samples} over the {len(degrees)} degrees of --degrees "
            f"asks for {verdicts} verdicts a law, more than {MAX_VERDICTS}"
        )
    law = args.law
    if law == "nilpotency":
        report = check_nilpotency(_complex(args.instance), degrees, sampler)
    elif law == "chain-morphism":
        r = _reduction(args.instance, "chain-morphism")
        report = check_chain_morphism(r.f, degrees, sampler, law="f:fd=df").merged(
            check_chain_morphism(r.g, degrees, sampler, law="g:fd=df")
        )
    elif law == "reduction":
        r = _reduction(args.instance, "reduction")
        report = check_reduction_laws(r, degrees, sampler)
    elif law.startswith("contracting:"):
        cc = _complex(args.instance)
        h = _homotopy(law.partition(":")[2], cc)
        report = check_contracting(cc, h, degrees, sampler)
    else:
        raise UsageError(
            "law must be nilpotency, chain-morphism, reduction or contracting:NAME"
        )
    return _emit_report(report, args)


def cmd_preimage(args) -> int:
    cc = _complex(args.instance)
    h = _homotopy(args.h, cc)
    return _emit_element(args, h.at(args.index), partial(preimage, cc, h, args.index))


def cmd_homology(args) -> int:
    degrees = _parse_range(args.range)
    try:  # the homology of a reduction's top is the homology of its bottom
        cc = resolve_effective_homology(args.instance).reduction.bottom
    except KeyError:
        cc = _complex(args.instance)
    groups = [(i, str(g)) for i, g in zip(degrees, homology_window(cc, degrees))]
    data = {"groups": [{"degree": i, "group": g} for i, g in groups]}
    return _emit(args, (f"H_{i} = {g}" for i, g in groups), data, indent=2)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="effhom",
        description="evaluate, law-check, and compute homology over the instance catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("list", help="show the instance catalog")
    add_format(p)
    p.set_defaults(handler=cmd_list)

    p = sub.add_parser("eval", help="apply a differential or homotopy to an element")
    p.add_argument("instance")
    p.add_argument("operator", help="'diff' or 'h:NAME'")
    p.add_argument("index", type=_ascii_int)
    p.add_argument("element")
    add_format(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("check", help="run a sampled law check")
    p.add_argument("instance")
    p.add_argument(
        "law", help="nilpotency | chain-morphism | reduction | contracting:NAME"
    )
    p.add_argument("--degrees", default=f"{DEFAULT_DEGREES[0]}..{DEFAULT_DEGREES[-1]}")
    for name, option in _SAMPLER_OPTIONS.items():
        p.add_argument(option, type=_ascii_int, default=getattr(Sampler, name))
    add_format(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("preimage", help="solve d(z) = x through a contracting homotopy")
    p.add_argument("instance")
    p.add_argument("index", type=_ascii_int)
    p.add_argument("element")
    p.add_argument("--h", required=True, help="name of the homotopy to apply")
    add_format(p)
    p.set_defaults(handler=cmd_preimage)

    p = sub.add_parser("homology", help="homology groups over a degree range")
    p.add_argument("instance")
    p.add_argument("range", help="lo..hi")
    add_format(p)
    p.set_defaults(handler=cmd_homology)

    return parser


def main(argv=None) -> int:
    # Integers are exact at every size, so the int <-> str digit limit is
    # lifted for this call only.
    try:
        code = _unlimited(_run, sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader left early (``effhom check ... | head``).  Point stdout
        # at devnull so the exit-time flush of what is left fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except (UsageError, ParseError, MembershipError, ShapeMismatchError,
            NotFiniteTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotACycleError as exc:
        print(f"not a cycle: {exc}")
        return 1
    except PreimageVerificationError as exc:
        print(f"verification failed: {exc}")
        return 1
    except HomAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
