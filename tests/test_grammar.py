"""Element text: printing, parsing, and the round trip."""

import hashlib
import random
import sys

import pytest

from effhom import (
    COUNTABLE,
    ZERO,
    Z,
    Comb,
    DirectSum,
    FiniteFree,
    MembershipError,
    Pair,
    ParseError,
    format_element,
    generator,
    parse_element,
)
from effhom.cli import main
from effhom.instances import HOMOTOPIES, resolve_complex
from effhom.reduction import check_contracting
from effhom.sampling import Sampler

CONE_SHAPE = DirectSum(DirectSum(Z, COUNTABLE), Z)


class TestFormat:
    def test_cone_element_prints_flat(self):
        e = Pair(Pair(Comb(((0, -10),)), Comb(((0, -8), (4, -7)))), Comb(((0, 5),)))
        assert format_element(e, CONE_SHAPE) == "(-10, -8*x0-7*x4, 5)"

    def test_rank_one_prints_bare(self):
        assert format_element(Comb(((0, 5),)), Z) == "5"
        assert format_element(Comb(()), Z) == "0"

    def test_unit_coefficients_elided(self):
        e = Comb(((3, -1), (5, 1)))
        assert format_element(e, COUNTABLE) == "-x3+x5"

    def test_zero_leaves(self):
        assert format_element(Comb(()), COUNTABLE) == "0"
        assert format_element(Comb(()), ZERO) == "0"

    def test_pair_of_integers(self):
        e = Pair(Comb(((0, 5),)), Comb(((0, 7),)))
        assert format_element(e, DirectSum(Z, Z)) == "(5, 7)"

    def test_wrong_shape_raises(self):
        with pytest.raises(MembershipError):
            format_element(Comb(((0, 1),)), CONE_SHAPE)


class TestParse:
    def test_flat_and_nested_agree(self):
        flat = parse_element("(5, 7*x4+8*x0, 3)", CONE_SHAPE)
        left = parse_element("((5, 7*x4+8*x0), 3)", CONE_SHAPE)
        right = parse_element("(5, (7*x4+8*x0, 3))", CONE_SHAPE)
        assert flat == left == right
        assert flat == Pair(
            Pair(Comb(((0, 5),)), Comb(((0, 8), (4, 7)))), Comb(((0, 3),))
        )

    def test_trailing_whitespace_is_ignored(self):
        assert parse_element("x1  ", COUNTABLE) == Comb(((1, 1),))

    def test_only_ascii_digits(self):
        # \d would read the Arabic-Indic one as x1
        for text in ("x\u0661", "\u0661", "3*x\u0661"):
            with pytest.raises(ParseError):
                parse_element(text, COUNTABLE)

    def test_terms_normalize(self):
        assert parse_element("3*x1-3*x1", COUNTABLE) == Comb(())
        assert parse_element("x2+x2", COUNTABLE) == Comb(((2, 2),))

    def test_signs(self):
        assert parse_element("-x3", COUNTABLE) == Comb(((3, -1),))
        assert parse_element("-10", Z) == Comb(((0, -10),))
        assert parse_element("-0", Z) == Comb(())

    def test_bare_int_needs_rank_one(self):
        assert parse_element("0", COUNTABLE) == Comb(())
        with pytest.raises(MembershipError):
            parse_element("7", COUNTABLE)
        with pytest.raises(MembershipError):
            parse_element("7", FiniteFree(2))

    def test_component_count_checked(self):
        with pytest.raises(MembershipError):
            parse_element("(5, 7)", CONE_SHAPE)
        with pytest.raises(MembershipError):
            parse_element("(5, 7, 3, 1)", CONE_SHAPE)

    def test_generator_bounds_checked(self):
        with pytest.raises(MembershipError):
            parse_element("x1", Z)

    def test_syntax_errors(self):
        for bad in ("", "(5)", "5+x3", "x", "3*", "(5, 7", "5 7", "x3+", "**"):
            with pytest.raises(ParseError):
                parse_element(bad, COUNTABLE)


PARSE_MESSAGES = [
    ("(1 2)", "expected ')' in element text"),
    ("x1+3x2", "a combination term needs an 'x' generator"),
    ("3*4", "expected a generator after '*'"),
    ("x1+)", "expected a term after '+'/'-'"),
    ("y", "unexpected character 'y'"),
    ("5 7", "trailing input in element text '5 7'"),
    ("x3+", "unexpected end of element text"),
    ("5+x3", "a bare integer cannot start a combination"),
    ("**", "expected a term or an integer"),
] + [
    # the tokenizer reads "x" and ASCII digits as one generator token
    (bad, "a generator needs an ASCII index after 'x'")
    for bad in ("x", "xa", "2*x", "x0+x", "x\u0661", "(x1, x)")
]


@pytest.mark.parametrize("bad, message", PARSE_MESSAGES)
def test_syntax_error_messages(bad, message):
    with pytest.raises(ParseError) as exc:
        parse_element(bad, COUNTABLE)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", ["x", "xa", "2*x", "x0+x", "x\u0661"])
def test_generator_without_index_exits_2(bad, capsys):
    assert main(["eval", "cc2", "diff", "0", bad]) == 2
    assert capsys.readouterr().err == "error: a generator needs an ASCII index after 'x'\n"


class TestPastTheDigitLimit:
    """Integers longer than the interpreter's 4,300-digit int <-> str limit."""

    def test_long_coefficient_and_index_round_trip(self):
        sevens, threes = (10**5000 - 1) // 9 * 7, (10**4500 - 1) // 3
        text = "-" + "7" * 5000 + "*x" + "3" * 4500
        e = Comb(((threes, -sevens),))
        assert parse_element(text, COUNTABLE) == e
        assert format_element(e, COUNTABLE) == text

    def test_long_bare_integer_round_trips(self):
        ones = (10**4301 - 1) // 9
        assert parse_element("1" * 4301, Z) == Comb(((0, ones),))
        assert format_element(Comb(((0, 10**4301),)), Z) == "1" + "0" * 4301

    def test_long_index_is_named_in_membership_error(self):
        with pytest.raises(MembershipError, match="^generator x3{4500} is not valid for Z$"):
            parse_element("x" + "3" * 4500, Z)

    def test_law_report_formats_long_coefficients(self):
        h, cc = HOMOTOPIES["h1"][1](), resolve_complex("cone-example.bottom")
        sampler = Sampler(samples=4, coeff_bound=10**4301)
        assert check_contracting(cc, h, range(0, 1), sampler).violations == 4

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int <-> str digit limit"
    )
    def test_limit_is_restored(self):
        limit = sys.get_int_max_str_digits()
        assert parse_element("5" * 5000, Z) == Comb(((0, (10**5000 - 1) // 9 * 5),))
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ParseError, match="unexpected character 'y'"):
            parse_element("5" * 5000 + " y", Z)
        assert sys.get_int_max_str_digits() == limit
        format_element(Comb(((0, 10**5000),)), Z)
        assert sys.get_int_max_str_digits() == limit


#: Pieces of the seeded corpus: every token kind, bad characters and space.
CORPUS_PIECES = [
    "(", ")", ",", "+", "-", "*", "x", "x0", "x1", "x3", "x12",
    "0", "3", "5", "12", "y", "\u0661", "((", "))", " ",
]


def test_seeded_corpus_outcomes_are_pinned():
    # the value or the error of every parse, in order: a change of any value,
    # message or of the order in which errors are found changes the digest
    rng = random.Random(30)
    digest = hashlib.sha256()
    parsed = 0
    for _ in range(20_000):
        text = "".join(rng.choices(CORPUS_PIECES, k=rng.randint(1, 7)))
        for desc in (COUNTABLE, Z, DirectSum(Z, COUNTABLE)):
            try:
                outcome = repr(parse_element(text, desc))
                parsed += 1
            except (ParseError, MembershipError) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            digest.update(f"{text!r} {desc} {outcome}\n".encode())
    assert (parsed, digest.hexdigest()) == (
        2173, "d940365e4620c5823889aacb0e5bc7bc6f12049bd8ac87f16276c5160fd1d107"
    )


def random_desc(rng, depth=0):
    kind = rng.randint(0, 3 if depth < 3 else 1)
    if kind <= 1:
        return FiniteFree(rng.randint(0, 3))
    if kind == 2:
        return COUNTABLE
    return DirectSum(random_desc(rng, depth + 1), random_desc(rng, depth + 1))


def test_round_trip_on_seeded_random_elements():
    rng = random.Random(20240817)
    sampler = Sampler(seed=20240817)
    for _ in range(1000):
        desc = random_desc(rng)
        e = sampler.element(rng, desc)
        text = format_element(e, desc)
        assert parse_element(text, desc) == e, (text, desc)


def test_generator_element_round_trip():
    e = generator(12)
    assert parse_element(format_element(e, COUNTABLE), COUNTABLE) == e
