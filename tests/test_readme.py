"""The ``$ effhom ...`` lines of README.md run in process and print what it shows."""

import shlex
from pathlib import Path

import pytest

from effhom.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of each ``$ effhom`` line in a code block.

    The output shown is every line after the command up to the next command
    or the end of the block; a ``#`` comment after a command is not argv.
    """
    found, in_block, current = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ "):
            current = None
            if line.startswith("$ effhom "):
                current = (shlex.split(line[2:], comments=True)[1:], [])
                found.append(current)
        elif current is not None:
            current[1].append(line)
    return found


EXAMPLES = examples()


def test_the_readme_shows_output_for_eval_preimage_and_fcc1_homology():
    assert [(argv[0], argv[1], bool(shown)) for argv, shown in EXAMPLES] == [
        ("eval", "cone-example", True),
        ("eval", "cone-example", True),
        ("preimage", "cone-example", True),
        ("check", "cone-example", False),
        ("check", "cone-example.bottom", False),
        ("check", "cone-example", False),
        ("homology", "fcc1", True),
        ("homology", "zxznat", False),
    ]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_runs_as_shown(capsys, argv, shown):
    code = main(argv)
    out = capsys.readouterr().out
    # h1 is the catalog's one homotopy that is not contracting
    assert code == (1 if "contracting:h1" in argv else 0)
    if shown:
        assert out == "".join(f"{line}\n" for line in shown)
