"""The step table: one spelling per step, shared by scripts and moves.

certify.STEPS gives each move tag its script word and argument kinds.
The DSL parser and printer, the CLI's move texts and the engine all read
it, so these tests drive every word in the table:

  * generated workspaces that use every script word survive
    parse(pretty_print(ws)) == ws;
  * each move the CLI builds from a script step prints as that step's
    DSL text, plus the fresh label for stabilize; bsum prints the
    summand's name;
  * every lefweave error class derives from LefweaveError, so the CLI's
    single ``except`` catches it.
"""

import importlib
import pkgutil

from hypothesis import given, settings, strategies as st

import lefweave
from lefweave.certify import STEPS
from lefweave.cli import execute
from lefweave.dsl import SCRIPT_WORDS, Workspace, parse, pretty_print

MOVE_TAGS = [tag for tag in SCRIPT_WORDS.values() if tag != "flexify"]

ints = st.lists(st.integers(-3, 3), max_size=4).map(tuple)
ARGS = {
    "pos": st.integers(1, 9),
    "ints": ints,
    "disks": st.lists(st.none() | ints, max_size=3).map(tuple),
    "datum": st.sampled_from(("D", "P")),
}


def step_asts(word):
    tag = SCRIPT_WORDS[word]
    kinds = STEPS[tag].kinds if tag in STEPS else ()
    return st.tuples(*(ARGS[k] for k in kinds if k != "label")).map(
        lambda args: (tag, args))


letters = st.lists(
    st.tuples(st.sampled_from(("e1", "e2")), st.integers(-3, 3).filter(bool)),
    max_size=4).map(tuple)
cycles = st.tuples(letters, st.sampled_from(
    (("basis", "e1"), ("basis", "e2"), ("arc", 1, 2, "a1"))))


@st.composite
def workspaces(draw):
    words = draw(st.permutations(sorted(SCRIPT_WORDS)))
    words += draw(st.lists(st.sampled_from(sorted(SCRIPT_WORDS)),
                           max_size=4))
    steps = tuple(draw(step_asts(word)) for word in words)
    definitions = (
        ("fiber", "a", ("ak", 3, 2)),
        ("datum", "D", ("cycles", "a", tuple(draw(st.lists(cycles))))),
        ("datum", "P", ("preset", "x1")),
        ("script", "s", ("D", steps)),
    )
    commands = (("verify", "s"),
                ("search", "P", draw(st.none() | st.integers(0, 5)),
                 draw(st.none() | st.integers(1, 99))))
    return Workspace(definitions, commands, (1, 2, 3, 4), (5, 6))


@settings(max_examples=60, deadline=None)
@given(workspaces())
def test_pretty_print_round_trip_over_every_word(ws):
    printed = pretty_print(ws)
    assert parse(printed) == ws
    assert pretty_print(parse(printed)) == printed


def test_move_texts_are_script_texts():
    text = (
        "datum X = preset x2\n"
        "datum E = preset x1\n"
        "script s on X {\n"
        "  hurwitzR 2;\n"
        "  certify-loose 2;\n"
        "  rotate;\n"
        "  hurwitzL 1;\n"
        "  stabilize [1, 0, 0, -1];\n"
        "  subflex [none, none, none, none, none];\n"
        "  bsum E;\n"
        "}\n"
        "verify s\n"
    )
    ws = parse(text)
    steps = ws.definitions[2][2][1]
    assert sorted({step[0] for step in steps}) == sorted(MOVE_TAGS)
    (entry,) = execute(ws)[0]
    script_texts = pretty_print(ws).splitlines()[3:-2]
    labels = {"stabilize": " s5"}
    assert entry["moves"] == [
        line.strip(" ;") + labels.get(step[0], "")
        for line, step in zip(script_texts, steps)]
    assert entry["moves"][-1] == "bsum E"
    assert entry["certifications"] == [[3, "loose_pair"]]


def test_every_error_derives_from_lefweave_error():
    found = []
    for info in pkgutil.iter_modules(lefweave.__path__):
        module = importlib.import_module("lefweave." + info.name)
        for name, obj in vars(module).items():
            if (name.endswith("Error") and isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                found.append(name)
                assert issubclass(obj, lefweave.LefweaveError), name
    assert len(found) == 10, found
