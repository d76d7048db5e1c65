"""Tests for Lefschetz data and their moves.

Frozen values, hand-checked with the Picard-Lefschetz formulas:

  * A2, n=2, cycles (e1, e2):
      hurwitz_left(1)  -> classes ((1,1), (1,0))   since tau_{e1}e2 = e2 + e1
      hurwitz_right(1) -> classes ((0,1), (1,1))   since tau_{e2}^-1 e1 = e1 + e2
  * tau_S(S) = -S for n even, so a move twisting e1 about e1 yields -e1.
  * (tau^2_S V, S) --hurwitz_right--> (S, tau_S V): the prepended inverse
    letter reduces tau_S^-1 tau_S^2 = tau_S.
  * subflexibilize of W(A1, n=2; e, e) with disk pairings (1,) and (1,):
    rank-3 fiber with gram [[-2,1,1],[1,-2,0],[1,0,-2]]; both cycle
    classes stay (1,0,0) because tau^2 = id on classes when n is even.
  * n=3 A2, cycle e2, disk pairings (0,1): <e2, s> = -1 in the enlarged
    gram, so tau^2_s(e2) = e2 - 2s = (0,1,-2) and the class changes.
"""

import random

import pytest

from lefweave.arcs import apply_half_twist, arc_to_class, standard_arc
from lefweave.fibers import FiberError, FiberModel, PlumbingTree, \
    ak_matching_fiber, plumbing_lattice
from lefweave.lattice import IntLattice, SphereClass, TwistWord, evaluate_word
from lefweave.presentation import (
    LefschetzDatum,
    MoveError,
    VanishingCycle,
    boundary_connect_sum,
    hurwitz_left,
    hurwitz_right,
    rotate,
    stabilize,
    subflexibilize,
    trivial_cycle,
)
from lefweave.presets import x2


def a2_datum(n=2):
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), n)
    e1 = fiber.basis_sphere("e1")
    e2 = fiber.basis_sphere("e2")
    return LefschetzDatum(
        fiber, (trivial_cycle(fiber, e1), trivial_cycle(fiber, e2))
    )


def a1_datum(n=2, copies=2):
    fiber = plumbing_lattice(PlumbingTree.path(1, prefix="e"), n)
    e = fiber.basis_sphere("e1")
    return LefschetzDatum(
        fiber, tuple(trivial_cycle(fiber, e) for _ in range(copies))
    )


def classes(datum):
    return tuple(c.klass.coords for c in datum.cycles)


def twisted_cycle(fiber, letter_indices, base_index):
    """A cycle with matching word and arc: letters are basis twists."""
    lattice = fiber.lattice
    word = TwistWord(
        [(lattice.basis_sphere(j), p) for j, p in letter_indices],
        lattice.basis_sphere(base_index),
    )
    arc = standard_arc(fiber.arc_system, base_index)
    for j, p in reversed(letter_indices):
        arc = apply_half_twist(fiber.arc_system, standard_arc(fiber.arc_system, j), arc, p)
    return VanishingCycle(lattice, word, arc=arc)


def arc_matches_class(fiber, cyc):
    if cyc.arc is None:
        return True
    got = arc_to_class(fiber.arc_system, cyc.arc).coords
    head = cyc.klass.coords[: len(got)]
    tail = cyc.klass.coords[len(got):]
    if any(tail):
        return False
    return head == got or head == tuple(-c for c in got)


def test_hurwitz_left_frozen():
    D = a2_datum()
    out = hurwitz_left(D, 1)
    assert classes(out) == ((1, 1), (1, 0))
    # transformed cycle records the twist as a word letter
    (letter,) = out.cycles[0].word.letters
    assert letter[0].coords == (1, 0) and letter[1] == 1
    assert out.cycles[0].word.base.coords == (0, 1)
    assert not out.cycles[1].word.letters
    # source datum untouched
    assert classes(D) == ((1, 0), (0, 1))


def test_hurwitz_right_frozen():
    D = a2_datum()
    out = hurwitz_right(D, 1)
    assert classes(out) == ((0, 1), (1, 1))
    (letter,) = out.cycles[1].word.letters
    assert letter[0].coords == (0, 1) and letter[1] == -1


def test_hurwitz_twist_about_self():
    fiber = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    e = fiber.basis_sphere("e1")
    D = LefschetzDatum(fiber, (trivial_cycle(fiber, e), trivial_cycle(fiber, e)))
    out = hurwitz_left(D, 1)
    assert classes(out) == ((-1,), (1,))


def test_hurwitz_inverse_bitexact():
    rng = random.Random(7)
    fiber = ak_matching_fiber(4, 2)
    for _ in range(25):
        cycles = []
        for _ in range(rng.randint(2, 4)):
            letters = [
                (rng.randint(1, 3), rng.choice((-1, 1)))
                for _ in range(rng.randint(0, 2))
            ]
            cycles.append(twisted_cycle(fiber, letters, rng.randint(1, 3)))
        D = LefschetzDatum(fiber, tuple(cycles))
        i = rng.randint(1, len(cycles))
        assert hurwitz_right(hurwitz_left(D, i), i) == D
        assert hurwitz_left(hurwitz_right(D, i), i) == D


def test_hurwitz_wraparound():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 2)
    e1 = fiber.basis_sphere("e1")
    e2 = fiber.basis_sphere("e2")
    D = LefschetzDatum(
        fiber,
        (trivial_cycle(fiber, e1), trivial_cycle(fiber, e2), trivial_cycle(fiber, e1)),
    )
    # position 3 pairs cycle 3 with cycle 1: e1 twisted about e1 gives -e1
    out = hurwitz_left(D, 3)
    assert classes(out) == ((1, 0), (0, 1), (-1, 0))
    assert not out.cycles[0].word.letters


def test_hurwitz_index_errors():
    D = a2_datum()
    for bad in (0, 3, -1):
        try:
            hurwitz_left(D, bad)
            assert False
        except MoveError:
            pass
    single = a1_datum(copies=1)
    try:
        hurwitz_right(single, 1)
        assert False
    except MoveError as err:
        assert err.context["k"] == 1


def test_hurwitz_flag_dynamics():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 2)
    s = fiber.basis_sphere("e2")
    v = trivial_cycle(fiber, fiber.basis_sphere("e1")).as_loose()
    sphere = trivial_cycle(fiber, s, stabilization_sphere=True)
    D = LefschetzDatum(fiber, (sphere, v))
    out = hurwitz_left(D, 1)
    # moved cycle keeps its flags, transformed cycle loses them
    assert out.cycles[1].stabilization_sphere
    assert not out.cycles[0].loose_certified
    assert not out.cycles[0].stabilization_sphere


def test_loose_pair_word_reduction():
    # (tau^2_S V, S) --hurwitz_right--> (S, tau_S V)
    base = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    D = LefschetzDatum(base, (trivial_cycle(base, base.basis_sphere("e1")),))
    D = stabilize(D, (1,), "s1")
    fiber = D.fiber
    s = fiber.basis_sphere("s1")
    v_word = TwistWord(((s, 2),), fiber.basis_sphere("e1"))
    D = LefschetzDatum(
        fiber,
        (VanishingCycle(fiber.lattice, v_word), D.cycles[1]),
    )
    out = hurwitz_right(D, 1)
    assert out.cycles[0].klass.coords == (0, 1)
    assert out.cycles[0].stabilization_sphere
    assert out.cycles[1].word.letters == ((s, 1),)
    assert out.cycles[1].klass.coords == (1, 1)


def test_rotate():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 2)
    e1 = fiber.basis_sphere("e1")
    e2 = fiber.basis_sphere("e2")
    D = LefschetzDatum(
        fiber,
        (trivial_cycle(fiber, e1), trivial_cycle(fiber, e2), trivial_cycle(fiber, e1)),
    )
    out = rotate(D)
    assert classes(out) == ((0, 1), (1, 0), (1, 0))
    again = D
    for _ in range(3):
        again = rotate(again)
    assert again == D
    empty = LefschetzDatum(fiber, ())
    assert rotate(empty) == empty
    single = LefschetzDatum(fiber, (trivial_cycle(fiber, e2),))
    assert rotate(single) == single


def test_stabilize_frozen():
    D = a1_datum()
    out = stabilize(D, (1,), "s1")
    assert out.fiber.lattice.gram == ((-2, 1), (1, -2))
    assert out.fiber.basis_labels == ("e1", "s1")
    assert out.fiber.stabilizing_spheres == {"s1"}
    assert classes(out) == ((1, 0), (1, 0), (0, 1))
    assert out.cycles[2].stabilization_sphere
    assert not out.cycles[0].stabilization_sphere
    # old cycles' words are re-embedded, caches stay valid
    for cyc in out.cycles:
        assert cyc.klass == evaluate_word(out.fiber.lattice, cyc.word)


def test_a_cycle_repr_names_its_flags():
    out = stabilize(a1_datum(), (1,), "s1")
    assert repr(out.cycles[0]) == "VanishingCycle((1, 0))"
    assert repr(out.cycles[2]) == "VanishingCycle((0, 1), sphere)"
    assert repr(out.cycles[0].as_loose()) == "VanishingCycle((1, 0), loose)"
    assert repr(out.cycles[2].as_loose()) == \
        "VanishingCycle((0, 1), sphere, loose)"


def test_stabilize_disjoint_handles_commute():
    D = a1_datum()
    one = stabilize(stabilize(D, (0,), "h1"), (0, 0), "h2")
    two = stabilize(stabilize(D, (0,), "h2"), (0, 0), "h1")
    assert one.fiber.lattice.gram == two.fiber.lattice.gram
    assert sorted(one.fiber.basis_labels) == sorted(two.fiber.basis_labels)
    assert classes(one) == classes(two)


def test_subflexibilize_frozen_even():
    D = a1_datum()
    out = subflexibilize(D, [(1,), (1,)])
    assert out.fiber.lattice.gram == (
        (-2, 1, 1),
        (1, -2, 0),
        (1, 0, -2),
    )
    assert out.fiber.basis_labels == ("e1", "s1", "s2")
    assert out.fiber.stabilizing_spheres == {"s1", "s2"}
    # tau^2 acts trivially on classes for n even
    assert classes(out) == ((1, 0, 0), (1, 0, 0))
    s1 = out.fiber.basis_sphere("s1")
    s2 = out.fiber.basis_sphere("s2")
    assert out.cycles[0].word.letters == ((s1, 2),)
    assert out.cycles[1].word.letters == ((s2, 2),)
    assert out.sf_spheres == ((1, "s1"), (2, "s2"))
    # the new spheres are fiber handles, not cycles
    assert len(out.cycles) == 2
    # moves that reorder or add cycles clear the provenance record
    assert rotate(out).sf_spheres == ()
    assert hurwitz_left(out, 1).sf_spheres == ()
    assert stabilize(out, (0, 0, 0), "h").sf_spheres == ()


def test_subflexibilize_partial():
    D = a1_datum()
    out = subflexibilize(D, [None, (1,)])
    assert out.fiber.basis_labels == ("e1", "s2")
    assert not out.cycles[0].word.letters
    assert out.cycles[1].word.letters != ()
    assert out.sf_spheres == ((2, "s2"),)


def test_subflexibilize_odd_changes_class():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 3)
    D = LefschetzDatum(fiber, (trivial_cycle(fiber, fiber.basis_sphere("e2")),))
    out = subflexibilize(D, [(0, 1)])
    assert classes(out) == ((0, 1, -2),)
    assert classes(out) != ((0, 1, 0),)


def test_subflexibilize_precondition_error():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 3)
    D = LefschetzDatum(fiber, (trivial_cycle(fiber, fiber.basis_sphere("e1")),))
    try:
        subflexibilize(D, [(0, 1)])
        assert False
    except MoveError as err:
        assert err.context["i"] == 1


def test_subflexibilize_empty_and_length_errors():
    fiber = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    empty = LefschetzDatum(fiber, ())
    assert subflexibilize(empty, []) == empty
    D = a1_datum()
    assert subflexibilize(D, [None, None]) == D
    # an all-None step keeps the fiber and the provenance record
    sf = subflexibilize(D, [(1,), None])
    assert subflexibilize(sf, [None, None]) == sf
    assert subflexibilize(sf, [None, None]).sf_spheres == ((1, "s1"),)
    for bad in ([(1,)], [(1,), (1,), (1,)], [(1, 0), (1,)]):
        try:
            subflexibilize(D, bad)
            assert False
        except MoveError:
            pass


@pytest.mark.parametrize("move,error", (
    (lambda D: stabilize(D, [1.5, 0], "s"), FiberError),
    (lambda D: subflexibilize(D, [[1.5, 0], None]), MoveError),
    (lambda D: subflexibilize(D, [["1", 0], None]), MoveError),
), ids=("stabilize-fraction", "subflex-fraction", "subflex-text"))
def test_a_move_rejects_a_non_integer_pairing(move, error):
    # int() would truncate 1.5 to 1 and read "1" as 1
    with pytest.raises(error, match="must be integral"):
        move(a2_datum())


def test_subflexibilize_drops_arcs_on_twisted_cycles():
    fiber = ak_matching_fiber(2, 2)
    cyc = twisted_cycle(fiber, [], 1)
    assert cyc.arc is not None
    D = LefschetzDatum(fiber, (cyc, cyc))
    out = subflexibilize(D, [(1,), None])
    assert out.cycles[0].arc is None
    assert out.cycles[1].arc is not None


def test_boundary_connect_sum_frozen():
    D1 = a1_datum(copies=1)
    fiber2 = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    D2 = LefschetzDatum(
        fiber2,
        (trivial_cycle(fiber2, fiber2.basis_sphere("e1")).as_loose(),),
    )
    out = boundary_connect_sum(D1, D2)
    assert out.fiber.lattice.gram == ((-2, 0), (0, -2))
    assert out.fiber.basis_labels == ("e1", "e1'")
    assert classes(out) == ((1, 0), (0, 1))
    assert out.cycles[1].loose_certified
    for cyc in out.cycles:
        assert cyc.klass == evaluate_word(out.fiber.lattice, cyc.word)


def test_boundary_connect_sum_identity_and_errors():
    D = a2_datum()
    empty = LefschetzDatum(FiberModel(IntLattice((), 2), ()), ())
    assert boundary_connect_sum(D, empty) == D
    assert boundary_connect_sum(empty, D) == D
    odd = a1_datum(n=3)
    try:
        boundary_connect_sum(D, odd)
        assert False
    except MoveError:
        pass


@pytest.mark.parametrize("other", ("X", None, 5))
def test_boundary_connect_sum_rejects_a_non_datum_summand(other):
    with pytest.raises(MoveError, match="bsum argument must be a datum"):
        boundary_connect_sum(x2(), other)


@pytest.mark.parametrize("other", ("X", None, 5))
def test_a_cycle_or_datum_is_unequal_to_a_foreign_object(other):
    D = x2()
    assert D != other and D.cycles[0] != other


def test_boundary_connect_sum_keeps_handle_labels():
    D1 = stabilize(a1_datum(), (1,), "s1")
    D2 = stabilize(a1_datum(), (0,), "s1")
    out = boundary_connect_sum(D1, D2)
    assert out.fiber.basis_labels == ("e1", "s1", "e1'", "s1'")
    assert set(out.fiber.stabilizing_spheres) == {"s1", "s1'"}
    # the renamed sphere cycle still points at its basis vector
    assert out.cycles[5].klass.coords == (0, 0, 0, 1)
    assert out.cycles[5].stabilization_sphere


def test_cycles_with_one_word_and_non_isotopic_arcs_stay_apart():
    # t_2^2(std_1) has the class of std_1 at n=2 but is another arc; the
    # cycle hash leaves arcs out, so only __eq__ tells the cycles apart
    fiber = ak_matching_fiber(3, 2)
    system = fiber.arc_system
    std1 = standard_arc(system, 1)
    looped = apply_half_twist(system, standard_arc(system, 2), std1, 2)
    e1 = fiber.basis_sphere("e1")
    plain = VanishingCycle(fiber.lattice, TwistWord((), e1), arc=std1)
    twisted = VanishingCycle(fiber.lattice, TwistWord((), e1), arc=looped)
    assert plain.word == twisted.word and plain != twisted
    assert hash(plain) == hash(twisted)
    assert len({plain, twisted}) == 2
    # the same dedup search uses: data differing in one arc both stay,
    # an isotopic arc with another history is a duplicate
    other = trivial_cycle(fiber, fiber.basis_sphere("e2"))
    first = LefschetzDatum(fiber, (plain, other))
    seen = {first}
    second = LefschetzDatum(fiber, (twisted, other))
    assert second not in seen
    seen.add(second)
    assert len(seen) == 2
    fixed = apply_half_twist(system, std1, std1, 1)
    assert fixed.word != std1.word
    assert LefschetzDatum(
        fiber, (VanishingCycle(fiber.lattice, TwistWord((), e1), arc=fixed),
                other)) in seen


def test_cycle_cache_and_immutability():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 2)
    e1 = fiber.basis_sphere("e1")
    e2 = fiber.basis_sphere("e2")
    word = TwistWord(((e2, 1),), e1)
    cyc = VanishingCycle(fiber.lattice, word)
    assert cyc.klass == evaluate_word(fiber.lattice, word)
    try:
        cyc.klass = e1
        assert False
    except AttributeError:
        pass
    D = LefschetzDatum(fiber, (cyc,))
    try:
        D.cycles = ()
        assert False
    except AttributeError:
        pass
    # class length must match the fiber
    small = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    try:
        LefschetzDatum(small, (cyc,))
        assert False
    except MoveError:
        pass


def test_move_storm_keeps_caches_and_arcs_valid():
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(2, 4)
        fiber = ak_matching_fiber(m, rng.choice((2, 3)))
        cycles = []
        for _ in range(rng.randint(2, 4)):
            letters = [
                (rng.randint(1, m - 1), rng.choice((-1, 1)))
                for _ in range(rng.randint(0, 2))
            ]
            cycles.append(twisted_cycle(fiber, letters, rng.randint(1, m - 1)))
        D = LefschetzDatum(fiber, tuple(cycles))
        for _ in range(12):
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
                    tuple(rng.randint(-1, 1) for _ in range(D.fiber.lattice.rank)),
                    "h%d" % rng.randrange(10 ** 6),
                )
            for cyc in D.cycles:
                assert cyc.klass == evaluate_word(D.fiber.lattice, cyc.word)
                assert arc_matches_class(D.fiber, cyc)
