"""Digests of the CLI's transcripts, to show that a change keeps them byte for byte.

    python3 tools/transcripts.py            # print one SHA-256 per family
    python3 tools/transcripts.py --check    # compare with tools/transcripts.sha256
    python3 tools/transcripts.py --dump DIR # also write every transcript under DIR

A transcript is the exit code, stdout and stderr of one ``effhom`` command,
run in this process through ``effhom.cli.main``.  There are four families:

- ``check``: the 19 law checks the catalog offers (nilpotency of every
  instance, chain-morphism and reduction of each effective homology, and
  contracting for each homotopy) x seeds 0, 1, 7 and 42 x five sampler
  settings x text and json, 760 transcripts;
- ``homology``: every instance of the catalog x five degree ranges x text
  and json, 90 transcripts;
- ``element``: ``eval <id> diff`` on every instance of the catalog, and
  ``eval <home> h:<name>`` and ``preimage <home> ... --h <name>`` for every
  homotopy, at degrees 0 and 1 x the 24 texts of ``TEXTS`` x text and json,
  1,632 transcripts;
- ``cli``: ``list``, and each catalog lookup the CLI can refuse (an unknown
  instance for every subcommand that takes one, an unknown homotopy and a
  homotopy over another instance for each way of naming one, a law that
  needs an effective homology on a plain complex, a bad ``eval`` operator
  and a bad law name) x text and json, 40 transcripts.

The digest of a family hashes its transcripts in order.  A change that
means to alter a transcript rewrites ``tools/transcripts.sha256`` with this
script's output; ``--dump`` on both trees and ``diff -r`` show what moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tools" / "transcripts.sha256"
sys.path.insert(0, str(ROOT / "src"))

from effhom import cli  # noqa: E402
from effhom.instances import CATALOG, HOMOTOPIES  # noqa: E402

SEEDS = (0, 1, 7, 42)
SETTINGS = (
    (),
    ("--max-gen", "3"),
    ("--max-gen", "40"),
    ("--samples", "5"),
    ("--coeff-bound", "1", "--support", "2"),
)
RANGES = ("0..0", "-1..1", "-8..8", "-20..-15", "3..12")
FORMATS = ("text", "json")
DEGREES = ("0", "1")
#: Accepted spellings for every module shape of the catalog (flat, nested,
#: bare and signed integers), then one text for each ``ParseError`` message.
TEXTS = (
    "0", "-0", "12", "-10", "x3", "-x3+2*x0", "7*x4+8*x0-x1",
    "(5, 7)", "(-2, 3*x1-x0)", "(5, 7*x4+8*x0, 3)", "((5, 7*x4+8*x0), 3)",
    "(5, (-x1, -3))", "(0, 0, 0)",
    "x1+xa", "5 y", "(5, x3+", "5 7", "(1 2)", "(5)", "5+x3", "**",
    "x1+3x2", "x1+)", "3*4",
)
#: ``list``, then one command for each way a catalog lookup is refused.
CLI = (
    ["list"],
    ["eval", "nosuch", "diff", "0", "0"],
    ["check", "nosuch", "nilpotency"],
    ["check", "nosuch", "contracting:hcc2"],
    ["check", "nosuch", "chain-morphism"],
    ["preimage", "nosuch", "0", "0", "--h", "hcc2"],
    ["homology", "nosuch", "0..0"],
    ["eval", "cc2", "h:nosuch", "0", "0"],
    ["check", "cc2", "contracting:nosuch"],
    ["preimage", "cc2", "0", "0", "--h", "nosuch"],
    ["eval", "cc1", "h:hcc2", "0", "0"],
    ["check", "cc1", "contracting:htop"],
    ["preimage", "cc2", "0", "0", "--h", "h1"],
    ["check", "cc1", "chain-morphism"],
    ["check", "cc1", "reduction"],
    ["check", "cone-example.bottom", "reduction"],
    ["eval", "cc1", "d", "0", "0"],
    ["eval", "cc1", "h", "0", "0"],
    ["check", "cc1", "nosuch"],
    ["check", "cc1", "contracting"],
)


def laws() -> list[tuple[str, str]]:
    """(instance, law) of every law check the catalog offers."""
    out = [(entry.ident, "nilpotency") for entry in CATALOG.values()]
    for entry in CATALOG.values():
        if entry.kind == "effective-homology":
            out += [(entry.ident, "chain-morphism"), (entry.ident, "reduction")]
    return out + [(home, f"contracting:{name}") for name, (home, _, _) in HOMOTOPIES.items()]


def families() -> dict[str, list[list[str]]]:
    """The argv of every transcript, by family."""
    check = [
        ["check", ident, law, "--seed", str(seed), *setting, "--format", fmt]
        for ident, law in laws()
        for seed in SEEDS
        for setting in SETTINGS
        for fmt in FORMATS
    ]
    homology = [
        ["homology", entry.ident, span, "--format", fmt]
        for entry in CATALOG.values()
        for span in RANGES
        for fmt in FORMATS
    ]
    # (argv before the degree, argv after the element text)
    operators = [(["eval", entry.ident, "diff"], []) for entry in CATALOG.values()]
    for name, (home, _, _) in HOMOTOPIES.items():
        operators += [(["eval", home, f"h:{name}"], []), (["preimage", home], ["--h", name])]
    element = [
        [*head, degree, text, *tail, "--format", fmt]
        for head, tail in operators
        for degree in DEGREES
        for text in TEXTS
        for fmt in FORMATS
    ]
    commands = [[*command, "--format", fmt] for command in CLI for fmt in FORMATS]
    return {"check": check, "homology": homology, "element": element, "cli": commands}


def transcript(argv: list[str]) -> str:
    """The command line, exit code, stdout and stderr of one run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(),
                       "stderr": err.getvalue()}, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless the digests equal {DIGESTS.relative_to(ROOT)}")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="write each transcript to DIR/<family>/<n>.json")
    args = parser.parse_args(argv)

    lines = []
    for family, commands in families().items():
        digest = hashlib.sha256()
        for n, command in enumerate(commands):
            text = transcript(command)
            digest.update(text.encode() + b"\n")
            if args.dump:
                path = args.dump / family / f"{n:04d}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text + "\n")
        lines.append(f"{digest.hexdigest()}  {family} ({len(commands)} transcripts)")
    print("\n".join(lines))
    if not args.check:
        return 0
    expected = DIGESTS.read_text().splitlines()
    changed = [line for line in lines if line not in expected]
    for line in changed:
        print(f"differs from {DIGESTS.name}: {line}", file=sys.stderr)
    return 1 if changed or len(expected) != len(lines) else 0


if __name__ == "__main__":
    sys.exit(main())
