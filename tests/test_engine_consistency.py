"""Move-engine consistency: cached values agree with values rebuilt from scratch.

The moves derive each new cycle's class from cached classes, extend arc
sigma-letters incrementally and cache hashes.  Random sequences of Hurwitz,
rotate, stabilize, certify_loose, insert_sphere, subflex and bsum steps,
run through certify.apply_step on arc-carrying matching-fiber data,
check after every step that:

  * every cached class equals the evaluation of its word;
  * every arc has the canonical form (tests/arc_oracle.py) of the same
    arc rebuilt with no cached state;
  * the datum equals, and hashes like, a datum rebuilt through the public
    constructors, which evaluate every word;
  * hurwitz_left after hurwitz_right at one position restores the
    classes and words;
  * the shadow interpreter of verify_certificate, replaying the same
    steps over raw tuples, has the same classes, flags, labels and gram.

certify_loose, insert_sphere, subflex and bsum steps come in two kinds
(see planned_steps): some with drawn or wrong arguments, which the
rules mostly reject, and some with arguments planned to fit.  When the
engine rejects a step, the shadow must reject it too.  The shadow is
driven through its own entry points (shadow._shadow_state,
shadow._sh_apply and shadow._eval) and compared here, with no engine
helper in between.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from lefweave import certify, shadow
from lefweave.arcs import MatchingArc, apply_half_twist, induced_word, \
    standard_arc
from lefweave.fibers import ak_matching_fiber
from lefweave.lattice import SphereClass, TwistWord, evaluate_word
from lefweave.presentation import LefschetzDatum, MoveError, \
    VanishingCycle, hurwitz_left, hurwitz_right, trivial_cycle

from arc_oracle import canonical

MOVES = ("hurwitz_left", "hurwitz_right", "rotate", "stabilize",
         "certify_loose", "insert_sphere", "subflex", "bsum")
MAX_STEPS = 8


@st.composite
def scenarios(draw):
    m = draw(st.sampled_from((3, 4, 5)))
    n = draw(st.sampled_from((2, 3)))
    edge = st.integers(1, m - 1)
    letter = st.none() | st.tuples(edge, st.sampled_from((-1, 1)))
    cycles = draw(st.lists(st.tuples(edge, letter), min_size=2, max_size=3))
    # each step adds at most two basis spheres (a bsum of ak 3)
    rank = m - 1 + 2 * MAX_STEPS
    pairing = st.lists(st.integers(-1, 1), min_size=rank, max_size=rank)
    steps = draw(st.lists(
        st.tuples(st.sampled_from(MOVES), st.integers(1, 6), pairing),
        min_size=1, max_size=MAX_STEPS))
    # the second summand of every bsum step
    other = draw(st.tuples(
        st.sampled_from((2, 3)),
        st.lists(st.tuples(st.just(1), st.none()), min_size=1, max_size=2)))
    return m, n, cycles, steps, other


def build(m, n, cycles):
    fiber = ak_matching_fiber(m, n)
    system = fiber.arc_system
    built = []
    for position, (base, letter) in enumerate(cycles):
        arc = standard_arc(system, base)
        if letter is not None:
            arc = apply_half_twist(system, standard_arc(system, letter[0]),
                                   arc, letter[1])
        built.append(VanishingCycle(
            fiber.lattice, induced_word(system, arc), arc=arc,
            stabilization_sphere=position == 0))
    return LefschetzDatum(fiber, built)


def fresh_arc(arc):
    """The same half-twist history with no cached sigma-letters or key."""
    return MatchingArc(arc.system, arc.base_index,
                       tuple((fresh_arc(inner), power)
                             for inner, power in arc.word))


def fresh_class(s):
    return SphereClass(list(s.coords))


def rebuilt(D):
    lattice = D.fiber.lattice
    cycles = []
    for cyc in D.cycles:
        word = TwistWord([(fresh_class(c), e) for c, e in cyc.word.letters],
                         fresh_class(cyc.word.base))
        fresh = VanishingCycle(
            lattice, word,
            arc=None if cyc.arc is None else fresh_arc(cyc.arc),
            stabilization_sphere=cyc.stabilization_sphere)
        cycles.append(fresh.as_loose() if cyc.loose_certified else fresh)
    return LefschetzDatum(D.fiber, cycles, sf_spheres=D.sf_spheres)


def check_consistent(D):
    lattice = D.fiber.lattice
    for cyc in D.cycles:
        assert cyc.klass == evaluate_word(lattice, cyc.word)
        if cyc.arc is not None:
            assert canonical(cyc.arc) == canonical(fresh_arc(cyc.arc))
    twin = rebuilt(D)
    assert D == twin and twin == D
    assert hash(D) == hash(twin)
    for i in range(1, len(D.cycles) + 1):
        back = hurwitz_left(hurwitz_right(D, i), i)
        assert [c.klass for c in back.cycles] == [c.klass for c in D.cycles]
        assert [c.word for c in back.cycles] == [c.word for c in D.cycles]


def planned_steps(D, move, position, pairing, number, other):
    """The (tag, args) steps one drawn move stands for.

    A certify_loose draw with an odd position certifies the drawn pair,
    which rarely fits the rule.  With an even one it first rotates a
    stabilization sphere S to the front and sweeps it to the back with
    hurwitz_left, twisting each cycle it passes, so that S stands before
    tau_S of the first cycle across the basepoint; the rule then needs
    only that S meet the first cycle's class once.

    The other moves split the same way.  An odd position inserts a
    basis sphere that is not in the catalogue, subflexes cycle i along
    the drawn disk, or sums with ``other`` in the wrong dimension; an
    even one inserts a catalogue sphere (stabilizing first if there is
    none), subflexes along a basis sphere that meets cycle i once, or
    sums with ``other`` in D's dimension.
    """
    k = len(D.cycles)
    i = (position - 1) % k + 1
    rank = D.fiber.lattice.rank
    if move == "rotate":
        return [("rotate", ())]
    if move == "stabilize":
        return [("stabilize", (pairing[:rank], "h%d" % number))]
    if move == "insert_sphere":
        after = position % (k + 1)
        if position % 2:
            return [("insert_sphere", (after, D.fiber.basis_labels[0]))]
        catalogue = sorted(D.fiber.stabilizing_spheres)
        if catalogue:
            label = catalogue[position % len(catalogue)]
            return [("insert_sphere", (after, label))]
        label = "h%d" % number
        return [("stabilize", (pairing[:rank], label)),
                ("insert_sphere", (after, label))]
    if move == "subflex":
        disk = tuple(pairing[:rank])
        coords = D.cycles[i - 1].klass.coords
        once = [j for j, c in enumerate(coords) if abs(c) == 1]
        if not position % 2 and once:
            disk = tuple(int(j == once[0]) for j in range(rank))
        disks = [None] * k
        disks[i - 1] = disk
        return [("subflex", (disks,))]
    if move == "bsum":
        m, cycles = other
        n = D.n if not position % 2 else 5 - D.n
        return [("bsum", (build(m, n, cycles),))]
    spheres = [j for j, c in enumerate(D.cycles) if c.stabilization_sphere]
    if move != "certify_loose" or position % 2 or not spheres:
        return [(move, (i,))]
    j = spheres[position % len(spheres)]
    return ([("rotate", ())] * j
            + [("hurwitz_left", (p,)) for p in range(1, k)]
            + [("certify_loose", (k,))])


def check_shadow(state, D):
    """The shadow's replay agrees with the engine's datum."""
    gram, n = state["gram"], state["n"]
    assert [tuple(row) for row in gram] == list(D.fiber.lattice.gram)
    assert state["labels"] == list(D.fiber.basis_labels)
    assert len(state["cycles"]) == len(D.cycles)
    for replayed, cyc in zip(state["cycles"], D.cycles):
        assert shadow._eval(gram, n, replayed.letters, replayed.base) \
            == cyc.klass.coords
        assert (replayed.stab, replayed.loose) == (cyc.stabilization_sphere,
                                                   cyc.loose_certified)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_random_moves_keep_engine_consistent(scenario):
    m, n, cycles, steps, other = scenario
    D = build(m, n, cycles)
    check_consistent(D)
    state = shadow._shadow_state(D)
    check_shadow(state, D)
    for number, drawn in enumerate(steps):
        for step in planned_steps(D, *drawn, number, other):
            try:
                D = certify.apply_step(D, step)
            except (certify.CertifyError, MoveError):
                # a rejected step: the shadow rejects it too and, like
                # the engine, keeps its state
                with pytest.raises(shadow.ShadowError):
                    shadow._sh_apply(state, step)
                check_shadow(state, D)
                continue
            shadow._sh_apply(state, step)
            check_consistent(D)
            check_shadow(state, D)


def test_rejected_shadow_subflex_keeps_its_state():
    # the first disk meets its cycle once and the second misses its
    # cycle: the step is rejected after one handle could be attached
    fiber = ak_matching_fiber(3, 2)
    D = LefschetzDatum(fiber, [trivial_cycle(fiber, fiber.basis_sphere(label))
                               for label in ("e1", "e2")])
    step = ("subflex", ([(1, 0), (0, 0)],))
    with pytest.raises(MoveError):
        certify.apply_step(D, step)
    state = shadow._shadow_state(D)
    before = copy.deepcopy(state)
    with pytest.raises(shadow.ShadowError, match="meet its cycle once"):
        shadow._sh_apply(state, step)
    assert state == before
    check_shadow(state, D)
