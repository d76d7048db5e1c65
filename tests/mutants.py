"""Re-run the committed mutants: each must fail the test id it names.

Each entry of MUTANTS gives a file under ``src/lefweave``, a text that
occurs there exactly once, the text that replaces it, and a tier-1 test
id that the mutant must fail.  The entries are one-token slips in the
search's arguments (the guard's row count and level loop, the flag
budget's readiness test, the loose-pair rule's pairing and position
range, and the tight hurwitz row verdict's unflagged count and twisted
class), in the shadow's own position coercion and letter cancellation,
in the total-space homology formula and its two internal checks, and in
the sign flip of the Gram check.  The three row-count slips passed all of tier-1
until the guard-premise tests of tests/test_search_shortcut.py.

For each entry the runner copies ``src`` to a temporary directory,
applies the entry there and runs pytest on the named id alone, with
``PYTHONPATH`` pointing at the copy; it checks that the tests imported
``lefweave`` from the copy.  A mutant is killed when pytest reports a
failed test (exit 1): a usage error or an id that collects nothing is
not a kill.  First, every named id must pass on an unmutated copy.
Nothing is written into the checkout: pytest runs in the temporary
directory with its cache plugin off and no bytecode written.

Usage, from anywhere::

    python tests/mutants.py

Exits 0 when every mutant is killed, 1 when one survives, 2 on a
malformed entry or an id that fails unmutated.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file under src/lefweave, old text, new text, test id that must fail)
MUTANTS = (
    ("certify.py",
     "bound *= most + 4 * j",
     "bound *= most + 3 * j",
     "tests/test_search_shortcut.py::test_guard_counts_every_candidate_step[x1]"),
    ("certify.py",
     "bound += (1 + 3 * k if k >= 2 else 0) + rank",
     "bound += (3 * k if k >= 2 else 0) + rank",
     "tests/test_search_shortcut.py::test_guard_counts_every_candidate_step[x1]"),
    ("certify.py",
     "most = max(most, 1 + 3 * k + rank)",
     "most = max(most, 3 * k + rank)",
     "tests/test_search_shortcut.py::test_guard_counts_every_candidate_step[x1]"),
    ("certify.py",
     "if abs(hits) != 1:",
     "if abs(hits) > 1:",
     "tests/test_certify.py::test_rule_loose_pair_rejections"),
    ("certify.py",
     "for j in range(1, left):",
     "for j in range(1, left - 1):",
     "tests/test_search_shortcut.py::test_guard_holds_only_where_no_level_can_be_truncated[x1]"),
    ("certify.py",
     "m == 0 and child[j - 1] != 2",
     "m == 0 and child[j - 1] == 0",
     "tests/test_search_shortcut.py::test_child_steps_need_a_spare_step_for_rotate_and_stabilize[2]"),
    ("shadow.py",
     "after, label = operator.index(args[0]), args[1]",
     "after, label = args[0], args[1]",
     "tests/test_certify.py::test_an_index_only_position_verifies_as_its_int[insert]"),
    ("invariants.py",
     "len(D.cycles) - r",
     "len(D.cycles)",
     "tests/test_presets.py::test_x2_shape_and_homology"),
    ("lattice.py",
     "column = tuple(map(operator.neg, column))",
     "column = tuple(column)",
     "tests/test_lattice.py::test_the_first_sign_rule_violation_is_named[odd-n-symmetric]"),
    ("shadow.py",
     "return letters[1:]",
     "return letters",
     "tests/test_shadow.py::test_a_cancelled_letter_replays_alike"),
    ("certify.py",
     "if child.count(0) != need:",
     "if child.count(0) > need:",
     "tests/test_search_shortcut.py::test_tight_hurwitz_verdict_matches_the_built_child[x1]"),
    ("certify.py",
     "met = twist_power(lattice, center.klass, target.klass, exp)",
     "met = target.klass",
     "tests/test_search_shortcut.py::test_tight_hurwitz_verdict_matches_the_built_child[cancelled-head]"),
    ("certify.py",
     "if not 1 <= i <= k:",
     "if not 0 <= i <= k:",
     "tests/test_certify.py::test_rule_loose_pair_rejections"),
    ("invariants.py",
     "if chi != _euler_formula(D):",
     "if False:",
     "tests/test_invariants.py::test_homology_off_the_euler_formula_raises"),
    ("invariants.py",
     "if rem:",
     "if False:",
     "tests/test_invariants.py::test_a_half_integral_kernel_pairing_raises"),
)


def _copy_src(tmp):
    """A copy of src/ under ``tmp``, without bytecode caches."""
    dest = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _apply(src, name, old, new):
    path = os.path.join(src, "lefweave", name)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    count = text.count(old)
    if count != 1:
        raise ValueError("%s: %r occurs %d times, not once"
                         % (name, old, count))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(old, new))


# runs pytest, then records where the tests' lefweave came from
PROBE = """\
import sys
import pytest
code = pytest.main(sys.argv[2:])
module = sys.modules.get("lefweave")
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.write(getattr(module, "__file__", "") or "")
sys.exit(code)
"""


def _run(tmp, src, ids):
    """Run pytest on ``ids`` against the copy ``src``; return its exit
    code.  Raises RuntimeError if lefweave came from anywhere else."""
    where = os.path.join(tmp, "imported-from")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", PROBE, where, "-q", "-x",
            "-p", "no:cacheprovider", "--rootdir", ROOT,
            "-c", os.path.join(ROOT, "pyproject.toml")]
    argv += [os.path.join(ROOT, test_id) for test_id in ids]
    code = subprocess.run(argv, cwd=tmp, env=env,
                          stdout=subprocess.DEVNULL).returncode
    with open(where, encoding="utf-8") as handle:
        imported = handle.read()
    package = os.path.join(src, "lefweave", "")
    if not imported.startswith(package):
        raise RuntimeError("lefweave was imported from %r, not from %s"
                           % (imported, package))
    return code


def main():
    with tempfile.TemporaryDirectory(prefix="lefweave-mutants-") as tmp:
        src = _copy_src(tmp)
        code = _run(tmp, src, sorted({entry[3] for entry in MUTANTS}))
        if code != 0:
            print("the named ids do not all pass unmutated (pytest exit %d)"
                  % code)
            return 2
    survivors = 0
    for name, old, new, test_id in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="lefweave-mutant-") as tmp:
            src = _copy_src(tmp)
            try:
                _apply(src, name, old, new)
            except ValueError as err:
                print("malformed entry: %s" % err)
                return 2
            code = _run(tmp, src, [test_id])
        verdict = "killed" if code == 1 else "SURVIVED (pytest exit %d)" % code
        survivors += code != 1
        print("%s: %r -> %r: %s by %s" % (name, old, new, verdict, test_id))
    killed = len(MUTANTS) - survivors
    print("%d of %d mutants killed" % (killed, len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
