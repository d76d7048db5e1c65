"""End-to-end acceptance checks, one test per shipped guarantee.

Each check asserts exact expected values and a wall-clock cap, then
prints a single PASS line (visible under ``pytest -s``).  Expected
values repeat the frozen oracles from the per-module tests; nothing
here is derived from the code under test.
"""

import json
import pathlib
import random
import subprocess
import sys
import time

from lefweave.arcs import (
    ArcSystem,
    apply_half_twist,
    arc_to_class,
    standard_arc,
)
from lefweave.certify import (
    Certificate,
    flexify_after_handles,
    search_certificate,
    verify_certificate,
)
from lefweave.cli import execute
from lefweave.dsl import parse
from lefweave.fibers import PlumbingTree, plumbing_lattice
from lefweave.invariants import total_space_homology, total_space_invariants
from lefweave.lattice import IntLattice, SphereClass, TwistWord, twist_power
from lefweave.presentation import (
    LefschetzDatum,
    VanishingCycle,
    hurwitz_left,
    hurwitz_right,
    rotate,
    stabilize,
    subflexibilize,
    trivial_cycle,
)
from lefweave import presets

from arc_oracle import odd_class

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ("x1", "x2", "sf_t3s")


def finish(name, start, cap):
    elapsed = time.monotonic() - start
    assert elapsed < cap, "%s took %.2fs (cap %.0fs)" % (name, elapsed, cap)
    print("PASS %s (%.2fs < %.0fs)" % (name, elapsed, cap))


def path_datum(k_vertices, n, cycle_coords):
    fiber = plumbing_lattice(PlumbingTree.path(k_vertices, prefix="e"), n)
    cycles = tuple(
        trivial_cycle(fiber, SphereClass(tuple(c))) for c in cycle_coords
    )
    return LefschetzDatum(fiber, cycles)


def groups(inv):
    return {deg: (free, tor) for deg, free, tor in inv.homology}


def random_datum(rng, n, max_rank, max_k):
    rank = rng.randint(1, max_rank)
    fiber = plumbing_lattice(PlumbingTree.path(rank, prefix="e"), n)
    basis = [fiber.basis_sphere(lab) for lab in fiber.basis_labels]
    cycles = []
    for _ in range(rng.randint(2, max_k)):
        letters = tuple(
            (rng.choice(basis), rng.choice((-1, 1)))
            for _ in range(rng.randint(0, 3))
        )
        cycles.append(VanishingCycle(fiber.lattice, TwistWord(letters, rng.choice(basis))))
    return LefschetzDatum(fiber, tuple(cycles))


def test_criterion_1_x1_invariants():
    start = time.monotonic()
    text = (REPO / "examples" / "x1.lef").read_text(encoding="utf-8")
    results, status = execute(parse(text))
    assert status == 0
    (entry,) = results
    # the homology of a 3-disk-bundle sum: Z in degrees 0, 2, 3
    assert entry["homology"] == [
        {"degree": 0, "free": 1, "torsion": []},
        {"degree": 1, "free": 0, "torsion": []},
        {"degree": 2, "free": 1, "torsion": []},
        {"degree": 3, "free": 1, "torsion": []},
    ]
    assert entry["chi"] == 1
    finish("criterion 1: X1 example invariants", start, 1.0)


def test_criterion_2_even_twist_triviality():
    start = time.monotonic()
    rng = random.Random(20260814)
    for _ in range(200):
        rank = rng.randint(1, 6)
        n = rng.choice((2, 4))
        diagonal = 2 * (-1) ** (n * (n + 1) // 2)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = diagonal
            for j in range(i + 1, rank):
                v = rng.randint(-3, 3)
                gram[i][j] = v
                gram[j][i] = v
        L = IntLattice(gram, n=n)
        S = L.basis_sphere(rng.randint(1, rank))
        x = SphereClass(tuple(rng.randint(-9, 9) for _ in range(rank)))
        assert twist_power(L, S, twist_power(L, S, x, 1), 1).coords == x.coords
    L3 = IntLattice([[0, 1], [-1, 0]], n=3)
    e1, e2 = L3.basis_sphere(1), L3.basis_sphere(2)
    assert twist_power(L3, e2, twist_power(L3, e2, e1, 1), 1).coords == (1, 2)
    finish("criterion 2: even twists act trivially, odd ones do not", start, 1.0)


def comparable(inv):
    return (inv.homology, inv.chi, inv.middle_symmetry, inv.form_invariants)


def test_criterion_3_move_invariance():
    start = time.monotonic()
    rng = random.Random(97)
    for _ in range(1000):
        D = random_datum(rng, rng.choice((2, 3)), max_rank=4, max_k=5)
        want = comparable(total_space_invariants(D))
        for _ in range(rng.randint(1, 4)):
            k = len(D.cycles)
            op = rng.randrange(4)
            if op == 0:
                D = hurwitz_left(D, rng.randint(1, k))
            elif op == 1:
                D = hurwitz_right(D, rng.randint(1, k))
            elif op == 2:
                D = rotate(D)
            else:
                D = stabilize(
                    D,
                    tuple(rng.randint(-1, 1)
                          for _ in range(D.fiber.lattice.rank)),
                    "h%d" % rng.randrange(10 ** 6),
                )
            assert comparable(total_space_invariants(D)) == want
    finish("criterion 3: 1000 random move sequences preserve invariants",
           start, 30.0)


def sf_shadow_agrees(D, pairings):
    twisted = subflexibilize(D, pairings)
    handles = len([p for p in pairings if p is not None])
    shadow = LefschetzDatum(
        twisted.fiber,
        tuple(
            trivial_cycle(
                twisted.fiber,
                SphereClass(cycle.klass.coords + (0,) * handles))
            for cycle in D.cycles
        ),
    )
    left = total_space_homology(twisted)
    right = total_space_homology(shadow)
    return left.homology == right.homology and left.chi == right.chi


def test_criterion_4_sf_homology_shadow_even():
    start = time.monotonic()
    assert sf_shadow_agrees(path_datum(1, 2, [(1,), (1,)]), [(1,), (1,)])
    rng = random.Random(401)
    for _ in range(50):
        D = random_datum(rng, 2, max_rank=3, max_k=4)
        rank = D.fiber.lattice.rank
        pairings = []
        for cycle in D.cycles:
            # the attaching disk has to meet its own cycle exactly once
            while True:
                p = tuple(rng.randint(-2, 2) for _ in range(rank))
                if abs(sum(a * b for a, b in zip(p, cycle.klass.coords))) == 1:
                    pairings.append(p)
                    break
        assert sf_shadow_agrees(D, pairings)
    finish("criterion 4: even-n subflexibilization keeps homology", start, 10.0)


def test_criterion_5_sf_changes_homology_odd():
    start = time.monotonic()
    before = path_datum(2, 3, [(1, 0), (1, 0)])
    inv0 = total_space_homology(before)
    assert groups(inv0)[3] == (1, ())
    assert groups(inv0)[4] == (1, ())
    after = subflexibilize(before, [None, (1, 0)])
    inv1 = total_space_homology(after)
    assert groups(inv1)[3] == (1, (2,))
    assert groups(inv1)[4] == (0, ())
    finish("criterion 5: odd-n subflexibilization adds Z/2 torsion",
           start, 1.0)


def hurwitz_count(cert):
    return sum(1 for tag, _ in cert.moves
               if tag in ("hurwitz_left", "hurwitz_right"))


def test_criterion_6_certificate_replay():
    start = time.monotonic()
    sf = subflexibilize(path_datum(1, 2, [(1,), (1,)]), [(1,), (1,)])
    final, cert = flexify_after_handles(sf)
    res = verify_certificate(sf, cert)
    assert res.accepted, res.reason
    assert hurwitz_count(cert) == 2
    assert res.final == final
    assert cert.terminal_claim == "flexible"
    finish("criterion 6a: flexify replay on the two-handle datum", start, 1.0)

    start = time.monotonic()
    one_move = Certificate(
        (("hurwitz_right", (2,)), ("certify_loose", (2,))),
        ((3, "loose_pair"),), "flexible")
    assert hurwitz_count(one_move) == 1
    assert verify_certificate(presets.x2(), one_move).accepted
    finish("criterion 6b: X2 accepts a one-move certificate", start, 1.0)

    start = time.monotonic()
    assert verify_certificate(presets.x1_plus_cycle(), one_move).accepted
    finish("criterion 6c: X1 plus one cycle accepts", start, 1.0)


def test_criterion_7_bounded_search_regression():
    start = time.monotonic()
    first = search_certificate(presets.x1(), depth=4, width=10 ** 4)
    second = search_certificate(presets.x1(), depth=4, width=10 ** 4)
    assert first is None
    assert second is None
    finish("criterion 7: no certificate for X1 within depth 4", start, 60.0)


def twist_by_word(system, word, arc):
    for k, power in word:
        arc = apply_half_twist(system, standard_arc(system, k), arc, power)
    return arc


def test_criterion_8_arc_engine_fidelity():
    start = time.monotonic()
    for m in range(3, 6):
        system = ArcSystem(m, n=2)
        targets = [standard_arc(system, k) for k in range(1, m)]
        targets.append(twist_by_word(system, [(1, 1), (2, -1)], targets[0]))
        for i in range(1, m - 1):
            j = i + 1
            for a in targets:
                lhs = twist_by_word(system, [(i, 1), (j, 1), (i, 1)], a)
                rhs = twist_by_word(system, [(j, 1), (i, 1), (j, 1)], a)
                assert lhs == rhs
        for i in range(1, m):
            for j in range(i + 2, m):
                for a in targets:
                    lhs = twist_by_word(system, [(i, 1), (j, 1)], a)
                    rhs = twist_by_word(system, [(j, 1), (i, 1)], a)
                    assert lhs == rhs

    system = ArcSystem(3, n=2)
    a1 = standard_arc(system, 1)
    b = twist_by_word(system, [(2, 1), (2, 1)], a1)
    assert b != a1
    assert arc_to_class(system, b).coords == arc_to_class(system, a1).coords

    rng = random.Random(801)
    for _ in range(50):
        m = rng.randint(2, 5)
        system = ArcSystem(m, n=3)
        L = system.lattice
        word = [
            (rng.randint(1, m - 1), rng.choice([-1, 1]))
            for _ in range(rng.randint(0, 6))
        ]
        a = twist_by_word(system, word,
                          standard_arc(system, rng.randint(1, m - 1)))
        k = rng.randint(1, m - 1)
        sign = rng.choice([-1, 1])
        image = apply_half_twist(system, standard_arc(system, k), a, power=sign)
        lhs = odd_class(system, image)
        rhs = twist_power(L, L.basis_sphere(k), odd_class(system, a), sign)
        assert lhs.coords == rhs.coords or \
            lhs.coords == tuple(-c for c in rhs.coords)
    finish("criterion 8: braid relations, fragility gap, commuting square",
           start, 10.0)


def test_criterion_9_cli_golden_determinism():
    start = time.monotonic()
    for name in EXAMPLES:
        argv = [sys.executable, "-m", "lefweave.cli",
                "run", "examples/%s.lef" % name]
        one = subprocess.run(argv, cwd=REPO, capture_output=True)
        two = subprocess.run(argv, cwd=REPO, capture_output=True)
        golden = (REPO / "tests" / "golden" / ("%s.json" % name)).read_bytes()
        assert one.returncode == 0 and two.returncode == 0, (one.stderr, two.stderr)
        assert one.stdout == two.stdout
        assert one.stdout == golden, name
        json.loads(golden)
    finish("criterion 9: CLI output is byte-stable on the examples", start, 5.0)
