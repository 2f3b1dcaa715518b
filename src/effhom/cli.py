"""Command line front end over the instance catalog.

    effhom list
    effhom eval <instance> <diff|h:NAME> <index> <element>
    effhom check <instance> <nilpotency|chain-morphism|reduction|contracting:NAME>
    effhom preimage <instance> <index> <element> --h NAME
    effhom homology <instance> <lo..hi>

Exit codes: 0 success, 1 mathematical failure (law violations, not a
cycle, failed verification), 2 usage errors (bad syntax, membership,
infinite type).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache

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
    if not argv:
        return argv
    head, options, positionals = [argv[0]], [], []
    i = 1
    while i < len(argv):
        token = argv[i]
        if token == "--":
            positionals.extend(argv[i + 1 :])
            break
        if token in ("-h", "--help"):
            options.append(token)
        elif token.startswith("--"):
            if "=" in token or token not in _VALUE_OPTIONS or i + 1 >= len(argv):
                options.append(token)
            else:
                options.append(f"{token}={argv[i + 1]}")
                i += 1
        else:
            positionals.append(token)
        i += 1
    if not positionals:
        return head + options
    return head + options + ["--"] + positionals


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


def _complex(ident: str):
    try:
        return resolve_complex(ident)
    except KeyError:
        raise UsageError(f"unknown instance {ident!r}; try `effhom list`") from None


def _homotopy(name: str, cc):
    try:
        home, h = resolve_homotopy(name)
    except KeyError:
        raise UsageError(f"unknown homotopy {name!r}; try `effhom list`") from None
    if h.over is not cc:
        raise UsageError(f"homotopy {name!r} lives over {home!r}, not this instance")
    return h


def _reduction(ident: str, law: str):
    try:
        return resolve_effective_homology(ident).reduction
    except KeyError:
        raise UsageError(
            f"{law} checks apply to effective-homology instances"
        ) from None


def _emit_report(report: LawReport, args) -> int:
    # the writers yield a degree at a time, so the report is never held whole
    pieces = report._json_pieces() if args.format == "json" else report._text_pieces()
    sys.stdout.writelines(pieces)
    return 0 if report.ok else 1


def _emit_element(text: str, args) -> int:
    if args.format == "json":
        print(json.dumps({"result": text}))
    else:
        print(text)
    return 0


def cmd_list(args) -> int:
    if args.format == "json":
        print(
            json.dumps(
                {
                    "instances": [
                        {"id": e.ident, "kind": e.kind, "summary": e.summary}
                        for e in CATALOG.values()
                    ],
                    "homotopies": [
                        {"id": name, "over": home, "summary": summary}
                        for name, (home, _, summary) in HOMOTOPIES.items()
                    ],
                },
                indent=2,
            )
        )
        return 0
    for entry in CATALOG.values():
        print(f"{entry.ident:<22} {entry.kind:<20} {entry.summary}")
    for name, (home, _, summary) in HOMOTOPIES.items():
        print(f"{name:<22} {'homotopy':<20} {summary} (over {home})")
    return 0


def cmd_eval(args) -> int:
    cc = _complex(args.instance)
    if args.operator == "diff":
        morphism = cc.diff_at(args.index)
    elif args.operator.startswith("h:"):
        h = _homotopy(args.operator[2:], cc)
        morphism = h.at(args.index)
    else:
        raise UsageError(f"operator must be 'diff' or 'h:NAME', got {args.operator!r}")
    element = parse_element(args.element, morphism.source)
    image = morphism(element)
    return _emit_element(format_element(image, morphism.target), args)


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
        h = _homotopy(law.split(":", 1)[1], cc)
        report = check_contracting(cc, h, degrees, sampler)
    else:
        raise UsageError(
            "law must be nilpotency, chain-morphism, reduction or contracting:NAME"
        )
    return _emit_report(report, args)


def cmd_preimage(args) -> int:
    cc = _complex(args.instance)
    h = _homotopy(args.h, cc)
    source = cc.module_at(args.index)
    element = parse_element(args.element, source)
    z = preimage(cc, h, args.index, element)
    return _emit_element(format_element(z, cc.module_at(args.index + 1)), args)


def cmd_homology(args) -> int:
    degrees = _parse_range(args.range)
    try:
        eh = resolve_effective_homology(args.instance)
    except KeyError:
        eh = None
    # the homology of a reduction's top is the homology of its bottom
    cc = eh.reduction.bottom if eh is not None else _complex(args.instance)
    groups = zip(degrees, homology_window(cc, degrees))
    if args.format == "json":
        print(
            json.dumps(
                {"groups": [{"degree": i, "group": str(g)} for i, g in groups]},
                indent=2,
            )
        )
    else:
        for i, g in groups:
            print(f"H_{i} = {g}")
    return 0


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
    # Integers are exact at every size, so lift the int <-> str digit limit
    # for this call only; Python 3.10.0-3.10.6 has neither limit nor setter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader left early (``effhom check ... | head``).  Point stdout
        # at devnull so the exit-time flush of what is left fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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
