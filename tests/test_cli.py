"""Tests for the command-line surface.

Exit codes: 0 success, 1 rejected verify / empty search, 2 errors.  The
JSON document is canonical (two-space indent, sorted keys, trailing
newline); the committed files under tests/golden/ freeze the exact
output bytes for the example scripts.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from lefweave import cli
from lefweave.certify import Certificate, step_text
from lefweave.cli import (certificate_payload, execute, invariants_payload,
                          main, render)
from lefweave.dsl import DslError, parse, pretty_print
from lefweave.invariants import total_space_invariants
from lefweave.presets import x1

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ("x1", "x2", "sf_t3s")

X1_TEXT = (
    "fiber a2 = ak 3 n=2\n"
    "datum X1 over a2 = [e1, tw(e2)^2 e1]\n"
    "print invariants X1\n"
)


def write(tmp_path, text):
    path = tmp_path / "script.lef"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_main(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_run_examples_match_goldens():
    for name in EXAMPLES:
        proc = subprocess.run(
            [sys.executable, "-m", "lefweave.cli",
             "run", "examples/%s.lef" % name],
            cwd=REPO, capture_output=True)
        golden = (REPO / "tests" / "golden" / ("%s.json" % name)).read_bytes()
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden, name


def test_run_x1_values(tmp_path, capsys):
    status, out, err = run_main(
        capsys, ["run", write(tmp_path, X1_TEXT)])
    assert status == 0 and err == ""
    doc = json.loads(out)
    assert doc["meta"]["tool"] == "lefweave"
    assert doc["meta"]["seed"] is None
    (entry,) = doc["results"]
    assert entry["command"] == "print invariants"
    assert entry["datum"] == "X1"
    assert entry["preset"] is False
    assert entry["n"] == 2 and entry["chi"] == 1
    assert entry["homology"] == [
        {"degree": 0, "free": 1, "torsion": []},
        {"degree": 1, "free": 0, "torsion": []},
        {"degree": 2, "free": 1, "torsion": []},
        {"degree": 3, "free": 1, "torsion": []},
    ]
    assert entry["middle_form"] == {
        "matrix": [[0]], "symmetry": "skew",
        "rank": 0, "abs_det": 1, "signature": None,
    }


def test_check_subcommand(tmp_path, capsys):
    good = write(tmp_path, X1_TEXT)
    status, out, err = run_main(capsys, ["check", good])
    assert (status, out, err) == (0, "", "")

    bad = tmp_path / "bad.lef"
    bad.write_text("fiber a = ak\n", encoding="utf-8")
    status, out, err = run_main(capsys, ["check", str(bad)])
    assert status == 2 and out == ""
    assert "line 1" in err

    status, out, err = run_main(capsys, ["check", str(tmp_path / "no.lef")])
    assert status == 2 and "no.lef" in err


def test_verify_rejection_exits_1(tmp_path, capsys):
    text = (
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1]\n"
        "script s on D { rotate }\n"
        "verify s\n"
    )
    status, out, err = run_main(capsys, ["run", write(tmp_path, text)])
    assert status == 1 and err == ""
    (entry,) = json.loads(out)["results"]
    assert entry["command"] == "verify"
    assert entry["script"] == "s" and entry["base"] == "D"
    assert entry["accepted"] is False
    assert "neither loose-certified" in entry["reason"]
    assert entry["moves"] == ["rotate"]
    assert entry["claim"] == "flexible"


def test_search_hit_and_miss(tmp_path, capsys):
    hit = (
        "fiber a2 = ak 3 n=2\n"
        "datum D over a2 = []\n"
        "search D depth=0 width=1\n"
    )
    status, out, err = run_main(capsys, ["run", write(tmp_path, hit)])
    assert status == 0
    (entry,) = json.loads(out)["results"]
    assert entry["found"] is True
    assert entry["depth"] == 0 and entry["width"] == 1
    assert entry["certificate"] == {
        "moves": [], "certifications": [], "claim": "subcritical"}

    miss = (
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1]\n"
        "search D depth=1 width=10\n"
    )
    status, out, err = run_main(capsys, ["run", write(tmp_path, miss)])
    assert status == 1
    (entry,) = json.loads(out)["results"]
    assert entry["found"] is False and entry["certificate"] is None

    # a bare search takes its bounds from --depth and --width
    for text, bounds, found in ((hit, (0, 1), True), (miss, (1, 7), False)):
        bare = text.rsplit(" depth=", 1)[0] + "\n"
        argv = ["run", write(tmp_path, bare),
                "--depth", str(bounds[0]), "--width", str(bounds[1])]
        status, out, err = run_main(capsys, argv)
        assert status == (0 if found else 1) and err == ""
        (entry,) = json.loads(out)["results"]
        assert (entry["depth"], entry["width"]) == bounds
        assert entry["found"] is found


def test_search_width_past_sys_maxsize(tmp_path, capsys):
    """A width above sys.maxsize searches as a width no level reaches."""
    width = 10 ** 20
    assert width > sys.maxsize
    text = "datum P = preset x2\nsearch P depth=2 width=%d\n" % width
    bare = text.rsplit(" depth=", 1)[0] + "\n"
    for script, options in ((text, []),
                            (bare, ["--depth", "2", "--width", str(width)])):
        status, out, err = run_main(
            capsys, ["run", write(tmp_path, script)] + options)
        assert status == 0 and err == ""
        (entry,) = json.loads(out)["results"]
        assert entry["width"] == width and entry["found"] is True


def test_runtime_error_exits_2(tmp_path, capsys):
    text = (
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1, e1]\n"
        "script s on D { hurwitzL 9 }\n"
    )
    status, out, err = run_main(capsys, ["run", write(tmp_path, text)])
    assert status == 2 and out == ""
    assert "line 3" in err
    assert "while defining 's'" in err
    assert "out of range" in err

    # unreadable input and an unwritable --json-out: one line, no traceback
    not_utf8 = tmp_path / "latin.lef"
    not_utf8.write_bytes(b"\xff\xfe fiber\n")
    missing_dir = str(tmp_path / "missing" / "out.json")
    for argv, fragment in (
            (["check", str(not_utf8)], "codec can't decode"),
            (["run", str(not_utf8)], "codec can't decode"),
            (["run", write(tmp_path, X1_TEXT), "--json-out", missing_dir],
             "No such file or directory")):
        status, out, err = run_main(capsys, argv)
        assert status == 2 and out == "", argv
        assert err.startswith("lefweave: ") and err.count("\n") == 1, err
        assert fragment in err, err


def test_command_error_names_the_command(tmp_path, capsys):
    text = (
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1]\n"
        "print invariants D\n"
        "search D width=0\n"
    )
    path = write(tmp_path, text)
    status, out, err = run_main(capsys, ["run", path])
    assert status == 2 and out == ""
    assert err == ("lefweave: %s: line 4: while running 'search': "
                   "width must be positive\n" % path)


@pytest.mark.parametrize("commands, outcomes", (
    # a later success does not clear an earlier failure
    ("verify s\nsearch E depth=0 width=1\n",
     [("verify", False), ("search", True)]),
    # a later failure is not lost behind an earlier success
    ("search E depth=0 width=1\nsearch D depth=1 width=10\n",
     [("search", True), ("search", False)]),
))
def test_one_failed_command_makes_the_run_exit_1(tmp_path, capsys,
                                                 commands, outcomes):
    text = (
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1]\n"
        "datum E over a1 = []\n"
        "script s on D { rotate }\n"
    ) + commands
    status, out, err = run_main(capsys, ["run", write(tmp_path, text)])
    assert status == 1 and err == ""
    assert [(entry["command"], entry.get("accepted", entry.get("found")))
            for entry in json.loads(out)["results"]] == outcomes


def test_preset_flag_follows_script_chains():
    ws = parse(
        "datum P = preset x2\n"
        "script a on P { hurwitzR 2 }\n"
        "script b on a { certify-loose 2 }\n"
        "fiber a1 = ak 2 n=2\n"
        "datum D over a1 = [e1]\n"
        "script r on D { rotate }\n"
        "script r2 on r { rotate }\n"
        "verify b\n"
        "verify r2\n"
        "print invariants b\n"
        "search r2 depth=0 width=1\n"
    )
    results, status = execute(ws)
    assert status == 1
    assert [(entry.get("script", entry.get("datum")), entry["preset"])
            for entry in results] == [
        ("b", True), ("r2", False), ("b", True), ("r2", False)]


# a twist exponent, and the order of the H_1 it gives, past CPython's
# default 4,300-digit limit on str <-> int conversion
LONG_LITERAL_TEXT = (
    "fiber a = ak 3 n=1\n"
    "datum X over a = [tw(e2)^%s e1, e2]\n"
    "print invariants X\n" % ("1" + "0" * 4999)
)
LONG_RESULT_TEXT = (
    "fiber a = ak 3 n=1\n"
    "datum X over a = [tw(e2)^%s e1, tw(e1)^%s e2]\n"
    "print invariants X\n" % (("1" + "0" * 2500,) * 2)
)


def test_integers_past_the_digit_limit_run_and_print(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    path = write(tmp_path, LONG_LITERAL_TEXT)
    assert run_main(capsys, ["check", path]) == (0, "", "")
    status, out, err = run_main(capsys, ["run", path])
    assert status == 0 and err == ""
    status, out, err = run_main(
        capsys, ["run", write(tmp_path, LONG_RESULT_TEXT)])
    assert status == 0 and err == ""
    # H_1 = Z/(10^5000 + 1), printed in full
    assert '"torsion": [\n            1%s1\n' % ("0" * 4999) in out
    # the limit is lifted for the run only
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no str <-> int limit")
def test_a_literal_past_the_digit_limit_is_a_dsl_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(DslError) as info:
            parse(LONG_LITERAL_TEXT)
        assert (info.value.line, info.value.column) == (2, 26)
        with pytest.raises(DslError) as info:
            parse("fiber p = plumbing a1%s n=2\n" % ("0" * 4999))
        assert (info.value.line, info.value.column) == (1, 20)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_closed_stdout_exits_2_with_one_line(tmp_path):
    # unbuffered output would fail inside the write; buffered, at the
    # interpreter's closing flush unless the command flushes itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lefweave.cli",
             "run", write(tmp_path, X1_TEXT)],
            cwd=REPO, env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"lefweave: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("subcommand", ("run", "check"))
def test_a_leading_byte_order_mark_is_utf8(tmp_path, capsys, subcommand):
    path = write(tmp_path, X1_TEXT)
    plain = run_main(capsys, [subcommand, path])
    assert plain[0] == 0
    pathlib.Path(path).write_text("\ufeff" + X1_TEXT, encoding="utf-8")
    assert run_main(capsys, [subcommand, path]) == plain
    # anywhere else it is a character the grammar refuses
    pathlib.Path(path).write_text(
        X1_TEXT.replace("\n", "\n\ufeff", 1), encoding="utf-8")
    status, out, err = run_main(capsys, [subcommand, path])
    assert status == 2 and out == ""
    assert "line 2, column 1: unexpected character" in err, err


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a fiber too large to build; raised, never allocated
    def exhausted(payload):
        raise MemoryError

    monkeypatch.setattr(cli, "_build_fiber", exhausted)
    path = write(tmp_path, X1_TEXT)
    status, out, err = run_main(capsys, ["run", path])
    assert status == 2 and out == ""
    assert err == "lefweave: %s: out of memory\n" % path


def test_recursion_error_exits_2(tmp_path, capsys, monkeypatch):
    # raised, never recursed: no deep call stack is built
    def too_deep(payload):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_build_fiber", too_deep)
    path = write(tmp_path, X1_TEXT)
    status, out, err = run_main(capsys, ["run", path])
    assert status == 2 and out == ""
    assert err == "lefweave: %s: recursion too deep\n" % path


def test_long_twist_words_stay_off_the_call_stack(tmp_path, capsys):
    # 1200 and 20,000 twist letters: more than the interpreter's recursion
    # limit
    template = ("fiber a2 = ak 3 n=2\n"
                "datum D over a2 = [%s, e2]\n"
                "print invariants D\n")
    pair = "tw(e1)^1 tw(e2)^1 "
    for pairs in (600, 10000):
        text = template % (pair * pairs + "e1")
        assert pretty_print(parse(text)) == text
        path = write(tmp_path, text)
        assert run_main(capsys, ["check", path]) == (0, "", "")
        status, out, err = run_main(capsys, ["run", path])
        assert status == 0 and err == ""
        # tau_e1 tau_e2 has order 3 on classes at n=2
        twin = write(tmp_path, template % (pair * (pairs % 3) + "e1"))
        twin = run_main(capsys, ["run", twin])
        assert json.loads(out)["results"] == json.loads(twin[1])["results"]


def test_print_invariants_at_the_rank_cap(tmp_path, capsys):
    # plumbing a2000 is the largest fiber the DSL accepts
    text = ("fiber a = plumbing a2000 n=3\n"
            "datum D over a = [e1, e1, e2]\n"
            "print invariants D\n")
    status, out, err = run_main(capsys, ["run", write(tmp_path, text)])
    assert status == 0 and err == ""
    (entry,) = json.loads(out)["results"]
    assert entry["chi"] == -1996
    assert entry["homology"] == [
        {"degree": deg, "free": free, "torsion": []}
        for deg, free in enumerate((1, 0, 0, 1998, 1))]
    assert entry["middle_form"] == {
        "abs_det": 2, "matrix": [[2]], "rank": 1, "signature": 1,
        "symmetry": "symmetric"}


def test_json_out_and_seed(tmp_path, capsys):
    path = write(tmp_path, X1_TEXT)
    copy = tmp_path / "copy.json"
    status, out, err = run_main(
        capsys, ["run", path, "--json-out", str(copy), "--seed", "7"])
    assert status == 0
    assert copy.read_text(encoding="utf-8") == out
    assert json.loads(out)["meta"]["seed"] == 7


def test_execute_api_and_preset_flag():
    ws = parse(
        "datum P = preset x2\n"
        "script flex on P { hurwitzR 2; certify-loose 2 }\n"
        "verify flex\n"
    )
    results, status = execute(ws)
    assert status == 0
    (entry,) = results
    assert entry["preset"] is True
    assert entry["accepted"] is True
    assert entry["moves"] == ["hurwitzR 2", "certify-loose 2"]
    assert entry["certifications"] == [[3, "loose_pair"]]
    assert entry["claim"] == "flexible"
    assert entry["trace"][0].startswith("1:")


def test_render_shape():
    blob = render([], "whatever.lef")
    assert blob.endswith("\n")
    assert json.loads(blob) == {
        "meta": {"tool": "lefweave", "version": "0.1.0",
                 "source": "whatever.lef", "seed": None},
        "results": [],
    }


def test_export_json():
    doc = invariants_payload(total_space_invariants(x1()))
    assert doc["chi"] == 1 and doc["middle_form"]["symmetry"] == "skew"

    cert = Certificate((("hurwitz_right", (2,)), ("certify_loose", (2,))),
                       ((3, "loose_pair"),), "flexible")
    assert certificate_payload(cert) == {
        "moves": ["hurwitzR 2", "certify-loose 2"],
        "certifications": [[3, "loose_pair"]],
        "claim": "flexible"}


def test_format_move_all_tags():
    assert step_text("rotate", ()) == "rotate"
    assert step_text("hurwitz_left", (2,)) == "hurwitzL 2"
    assert step_text("hurwitz_right", (1,)) == "hurwitzR 1"
    assert step_text("certify_loose", (3,)) == "certify-loose 3"
    assert step_text("insert_sphere", (2, "e2")) == "insert-sphere 2 e2"
    assert step_text("stabilize", ((0, 1), "s3")) == "stabilize [0, 1] s3"
    assert step_text("subflex", (((1,), None),)) == "subflex [[1], none]"
    assert step_text("bsum", ("D",)) == "bsum D"


HURWITZ_SCRIPT = "script s on A {\n  hurwitzL 1;\n}\nverify s\n"


@pytest.mark.parametrize("cycles,twin,script,code", (
    ("arc(1,2; a1), e2", "e1, e2", "", 0),
    ("arc(2,1; a1), e2", "e1, e2", "", 0),
    ("tw(e2)^2 arc(1,2; a1), e2", "tw(e2)^2 e1, e2", "", 0),
    # the move half-twists one arc about the other; verify rejects
    ("arc(1,2; a1), arc(2,3; a2)", "e1, e2", HURWITZ_SCRIPT, 1),
), ids=("arc", "reversed-ends", "twisted-arc", "hurwitz-on-arcs"))
def test_run_catalogue_arc_matches_basis_twin(tmp_path, cycles, twin,
                                              script, code):
    def run_file(name, cycles):
        path = tmp_path / name
        path.write_text(
            "fiber a3 = ak 4 n=2\n"
            "datum A over a3 = [%s]\n"
            "%sprint invariants %s\n"
            % (cycles, script, "s" if script else "A"), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "lefweave.cli", "run", str(path)],
            cwd=REPO, capture_output=True)

    arc = run_file("arc.lef", cycles)
    basis = run_file("twin.lef", twin)
    assert (arc.returncode, arc.stderr) == (code, b""), arc.stderr
    assert (basis.returncode, basis.stderr) == (code, b"")
    assert json.loads(arc.stdout)["results"] == \
        json.loads(basis.stdout)["results"]


@pytest.mark.parametrize("fiber,cycle,message", (
    ("plumbing a2", "arc(1,2; a1)", "this fiber has no arc system"),
    ("ak 4", "arc(1,2; a9)", "unknown catalogue arc 'a9'"),
    ("ak 4", "arc(1,3; a1)",
     "catalogue arc 'a1' joins points (1, 2), not (1, 3)"),
), ids=("no-arc-system", "unknown-arc", "wrong-endpoints"))
def test_catalogue_arc_errors_exit_2(tmp_path, capsys, fiber, cycle,
                                     message):
    path = write(tmp_path, "fiber f = %s n=2\n"
                           "datum D over f = [%s, e2]\n" % (fiber, cycle))
    status, out, err = run_main(capsys, ["run", path])
    assert (status, out) == (2, "")
    assert err == "lefweave: %s: line 2: while defining 'D': %s\n" % (
        path, message)


def test_second_subflex_takes_a_primed_label(tmp_path, capsys):
    text = (
        "fiber p = plumbing a3 n=2\n"
        "datum D over p = [e1, e2]\n"
        "script sf on D {\n"
        "  subflex [[1, 0, 0], [0, 1, 0]];\n"
        "  subflex [[1, 0, 0, 0, 0], none];\n"
        "  flexify;\n"
        "}\n"
        "verify sf\n"
    )
    status, out, err = run_main(capsys, ["run", write(tmp_path, text)])
    assert status == 0 and err == ""
    (entry,) = json.loads(out)["results"]
    assert entry["accepted"] is True, entry["reason"]
    assert entry["moves"][2:4] == ["insert-sphere 1 s1'",
                                   "insert-sphere 3 s2"]
