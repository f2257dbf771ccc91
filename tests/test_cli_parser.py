"""The once-built argument parser and the angle syntax of --theta/--theta0."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import cli
from equibasis.cli import ArgumentProblem, build_parser, main, parse_angle

SEQUENCE = [
    ["verify", "--preset", "d=3", "--no-such-flag"],  # argparse refuses it: exit 2
    ["verify", "--preset", "d=4"],
    ["--version"],
]


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_consecutive_calls_match_first_calls(capsys):
    first = []
    for argv in SEQUENCE:
        build_parser.cache_clear()  # as in a fresh process
        first.append(run(argv, capsys))
    assert [code for code, _, _ in first] == [2, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in first[0][2]
    assert first[2][1].startswith("equibasis ")

    build_parser.cache_clear()
    shared = [run(argv, capsys) for argv in SEQUENCE]
    again = [run(argv, capsys) for argv in SEQUENCE]
    assert shared == first
    assert again == first


def test_parse_does_not_leak_between_calls():
    parser = build_parser()
    a = parser.parse_args(["search", "--d", "5", "--seed", "3", "--quiet"])
    b = parser.parse_args(["search", "--d", "6"])
    assert (a.seed, a.quiet) == (3, True)
    assert (b.seed, b.quiet, b.restarts, b.output) == (0, False, 32, None)
    assert b.func is cli.cmd_search


# --- parse_angle ------------------------------------------------------------

digits = st.text("0123456789", min_size=1, max_size=4)
coefficients = st.one_of(
    digits,
    st.builds("{}.{}".format, digits, digits),
    st.builds("{}.".format, digits),
    st.builds(".{}".format, digits),
)
blank = st.sampled_from(["", " ", "  "])


@given(
    st.sampled_from(["", "+", "-"]),
    st.none() | coefficients,
    st.sampled_from(["", "*"]),
    st.none() | coefficients.filter(lambda t: float(t) != 0.0),
    blank,
    blank,
)
@settings(max_examples=300, deadline=None)
def test_pi_forms_parse_to_their_radians(sign, coef, star, denom, pad, inner):
    text = sign + (coef or "") + inner + (star if coef else "") + inner + "pi"
    if denom is not None:
        text += inner + "/" + inner + denom
    expected = (-1.0 if sign == "-" else 1.0) * (float(coef) if coef else 1.0) * math.pi
    if denom is not None:
        expected /= float(denom)
    assert parse_angle(pad + text + pad) == expected


@pytest.mark.parametrize(
    "text, radians",
    [
        ("pi", math.pi),
        ("-pi/2", -math.pi / 2),
        ("2pi/3", 2 * math.pi / 3),
        (".5pi/3", 0.5 * math.pi / 3),
        ("0.5*pi", 0.5 * math.pi),
        (" +3 * pi / 4 ", 3 * math.pi / 4),
        ("-0pi", -0.0),
    ],
)
def test_listed_pi_forms(text, radians):
    got = parse_angle(text)
    assert got == radians and math.copysign(1.0, got) == math.copysign(1.0, radians)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_plain_floats_round_trip_through_repr(x):
    got = parse_angle(repr(x))
    assert got == x and math.copysign(1.0, got) == math.copysign(1.0, x)


@pytest.mark.parametrize(
    "token", ["two", "", "pi pi", "2pi/", "pi/-2", "--pi", "2 3pi", "pi/0", "pi/0.0", "1e3pi", "pie"]
)
def test_bad_tokens_are_argument_problems(token, capsys):
    with pytest.raises(ArgumentProblem):
        parse_angle(token)
    assert main(["verify", "--theta", f"0,{token}"]) == 2
    assert capsys.readouterr().err.startswith("error:")
