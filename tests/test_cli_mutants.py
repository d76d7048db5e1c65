"""Mutated scripts through ``lefweave run``: exit 0, 1 or 2, never raise.

The scripts are the benchmark's generated scripts
(``perfbench/workloads.py`` ``GENERATORS``), each changed by one or two
small edits: drop, duplicate or swap a line or a token, or set an
integer to a value in -1..3.  No edit raises a size or a search depth:
integers only shrink or stay, token edits leave alone tokens that hold a
digit (sizes, labels, ``depth=3``) and the word ``search`` (a search
written without ``depth=`` runs at the default depth 4).
"""

import importlib.util
import pathlib
import random
import re

from lefweave.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent

SEED = 20151006
MUTANTS = 2000

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", REPO / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# a bound pair stays one token, so no token edit can part it
TOKEN = re.compile(r"\w+=\d+|[A-Za-z_][\w']*|\d+|\S")


def base_scripts(rng):
    scripts = []
    for kind, count in workloads.CLI_TEMPLATES:
        for i in range(count):
            scripts.append(workloads.GENERATORS[kind](rng, i)[0])
    return scripts


def edit_lines(rng, text):
    lines = text.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(("drop", "duplicate", "swap"))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def edit_token(rng, text):
    spans = [m.span() for m in TOKEN.finditer(text)
             if not re.search(r"\d", m.group()) and m.group() != "search"]
    if len(spans) < 2:
        return text
    (a, b), (c, d) = sorted(rng.sample(spans, 2))
    kind = rng.choice(("drop", "duplicate", "swap"))
    if kind == "drop":
        return text[:a] + text[b:]
    if kind == "duplicate":
        return text[:b] + " " + text[a:b] + text[b:]
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def edit_integer(rng, text):
    spans = list(re.finditer(r"\d+", text))
    if not spans:
        return text
    m = rng.choice(spans)
    value = rng.randint(-1, min(3, int(m.group())))
    return text[:m.start()] + str(value) + text[m.end():]


EDITS = (edit_lines, edit_token, edit_integer)


def mutants():
    rng = random.Random(SEED)
    scripts = base_scripts(rng)
    for _ in range(MUTANTS):
        text = rng.choice(scripts)
        for _ in range(rng.randint(1, 2)):
            text = rng.choice(EDITS)(rng, text)
        yield text
    # a huge exponent is a cheap twist power, not a large object
    yield ("fiber a = ak 3 n=2\n"
           "datum D over a = [tw(e1)^1000000000000 e2, e1]\n"
           "print invariants D\n")


def test_mutated_scripts_exit_0_1_or_2(tmp_path, capsys):
    codes = {}
    for i, text in enumerate(mutants()):
        # a fresh file a run: rewriting one file can cost more than the run
        path = tmp_path / ("m%d.lef" % i)
        path.write_text(text, encoding="utf-8")
        status = main(["run", str(path)])
        err = capsys.readouterr().err
        assert status in (0, 1, 2), text
        assert "Traceback" not in err, text
        codes[status] = codes.get(status, 0) + 1
    # the last script is the huge exponent, and it runs
    assert status == 0
    # the edits reach every outcome, not only parse errors
    assert set(codes) == {0, 1, 2}
