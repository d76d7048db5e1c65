"""Tests for the script-language parser.

Everything here is syntax: results are checked as parse trees, never by
running them.  Error positions are asserted exactly (1-based columns).
The fiber size caps are checked through parse and ``lefweave check``
only, so no fiber is ever built here.
"""

import pytest

from lefweave.cli import main
from lefweave.dsl import DslError, parse, pretty_print

X1_TEXT = (
    "# example\n"
    "fiber a2 = ak 3 n=2\n"
    "datum X1 over a2 = [e1, tw(e2)^2 e1]\n"
    "print invariants X1\n"
)

SCRIPT_TEXT = (
    "fiber a1 = ak 2 n=2\n"
    "datum D over a1 = []\n"
    "datum P = preset x1\n"
    "script s on D { rotate; stabilize [1]; subflex [none]; bsum P;\n"
    "  hurwitzL 1; hurwitzR 2; certify-loose 1; flexify }\n"
    "verify s\n"
    "search P depth=4 width=100\n"
    "search s\n"
)


def test_parse_x1_shapes():
    ws = parse(X1_TEXT)
    assert ws.definitions == (
        ("fiber", "a2", ("ak", 3, 2)),
        ("datum", "X1", ("cycles", "a2",
                         (((), ("basis", "e1")),
                          ((("e2", 2),), ("basis", "e1"))))),
    )
    assert ws.commands == (("print_invariants", "X1"),)
    assert ws.def_lines == (2, 3)
    assert ws.cmd_lines == (4,)


def test_parse_script_and_commands():
    ws = parse(SCRIPT_TEXT)
    assert ws.definitions[3] == ("script", "s", ("D", (
        ("rotate", ()),
        ("stabilize", ((1,),)),
        ("subflex", ((None,),)),
        ("bsum", ("P",)),
        ("hurwitz_left", (1,)),
        ("hurwitz_right", (2,)),
        ("certify_loose", (1,)),
        ("flexify", ()),
    )))
    assert ws.commands == (
        ("verify", "s"),
        ("search", "P", 4, 100),
        ("search", "s", None, None),
    )


def test_empty_file_is_empty_workspace():
    ws = parse("")
    assert ws.definitions == () and ws.commands == ()
    assert parse("   \n# only a comment\n") == ws


def test_cycle_expression_variants():
    ws = parse(
        "fiber a3 = ak 4 n=2\n"
        "datum D over a3 = [arc(1,2; a1), tw(e1)^-1 e2, e3]\n")
    assert ws.definitions[1][2][2] == (
        ((), ("arc", 1, 2, "a1")),
        ((("e1", -1),), ("basis", "e2")),
        ((), ("basis", "e3")),
    )


def test_roundtrip_is_identity():
    for text in (X1_TEXT, SCRIPT_TEXT, ""):
        ws = parse(text)
        printed = pretty_print(ws)
        assert parse(printed) == ws
        assert pretty_print(parse(printed)) == printed


def check_error(text, fragment, line, column):
    try:
        parse(text)
    except DslError as err:
        assert fragment in str(err), str(err)
        assert (err.line, err.column) == (line, column), str(err)
    else:
        raise AssertionError("expected parse error: " + fragment)


def test_zero_twist_exponent_rejected():
    check_error(
        "fiber a2 = ak 3 n=2\ndatum D over a2 = [tw(e2)^0 e1]\n",
        "zero twist exponent", 2, 27)


def test_unknown_names_suggest():
    check_error("fiber milnor = ak 3 n=2\ndatum D over milnr = [e1]\n",
                "did you mean 'milnor'", 2, 14)
    check_error("fiber a2 = ak 3 n=2\ndatum D over a3 = [e1]\n",
                "unknown fiber 'a3'", 2, 14)
    check_error("datum D = preset x9\n", "unknown preset", 1, 18)


def test_duplicate_name_rejected():
    check_error("fiber a = ak 2 n=2\nfiber a = ak 2 n=2\n",
                "already defined", 2, 7)


def test_statement_and_step_suggestions():
    check_error("fibre a = ak 2 n=2\n", "did you mean 'fiber'", 1, 1)
    check_error(
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1]\n"
        "script s on D { rotte }\n",
        "did you mean 'rotate'", 3, 17)


def test_verify_requires_script():
    check_error(
        "fiber a1 = ak 2 n=2\ndatum D over a1 = [e1]\nverify D\n",
        "unknown script", 3, 8)


def test_trailing_and_lexical_errors():
    check_error("fiber a = ak 2 n=2 extra\n",
                "unexpected trailing input", 1, 20)
    check_error("fiber a = ak 2 n=2\ndatum D over a = [e1] @\n",
                "unexpected character", 2, 23)


def test_script_errors():
    check_error("script s on D {\n", "unknown datum", 1, 13)
    check_error(
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1]\n"
        "script s on D { rotate\n",
        "unterminated script", 3, 1)


def test_plumbing_shorthand_only():
    ws = parse("fiber p = plumbing a4 n=3\n")
    assert ws.definitions == (("fiber", "p", ("plumbing", 4, 3)),)
    check_error("fiber p = plumbing star n=3\n",
                "path shorthand", 1, 20)


def test_long_word_round_trip_compares_and_hashes():
    # 5000 twist letters on one cycle
    template = ("fiber a2 = ak 3 n=2\n"
                "datum D over a2 = [%s, arc(1,2; a1)]\n"
                "print invariants D\n")
    body = "tw(e1)^1 tw(e2)^-1 " * 2500
    ws = parse(template % (body + "e1"))
    twin = parse(pretty_print(ws))
    assert twin == ws and hash(twin) == hash(ws)
    # a workspace is not its text
    assert ws != pretty_print(ws)
    # the AST is flat: every letter, outermost first, then the inner cycle
    assert ws.definitions[1][2][2][0] == (
        (("e1", 1), ("e2", -1)) * 2500, ("basis", "e1"))
    # a change in the innermost cycle or in the last letter still shows
    assert parse(template % (body + "e2")) != ws
    assert parse(template % (body[:-len("tw(e2)^-1 ")] + "tw(e2)^1 e1")) != ws


FIBER_CAPS = (
    # (statement at the cap, its payload, statement one above the cap,
    # column of the size token)
    ("fiber a = ak 2001 n=2", ("ak", 2001, 2),
     "fiber a = ak 2002 n=2", 14),
    ("fiber p = plumbing a2000 n=3", ("plumbing", 2000, 3),
     "fiber p = plumbing a2001 n=3", 20),
    ("fiber a = ak 3 n=1000", ("ak", 3, 1000),
     "fiber a = ak 3 n=1001", 18),
)


@pytest.mark.parametrize("at_cap, payload, above, column", FIBER_CAPS)
def test_fiber_size_caps(tmp_path, capsys, at_cap, payload, above, column):
    assert parse(at_cap + "\n").definitions[0][2] == payload
    check_error("# caps\n" + above + "\n", "is at most", 2, column)
    path = tmp_path / "caps.lef"
    path.write_text(at_cap + "\n")
    assert main(["check", str(path)]) == 0
    path.write_text(above + "\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1, column %d" % column in err and "is at most" in err
