"""Move-engine consistency: cached values agree with values rebuilt from scratch.

The moves derive each new cycle's class from cached classes, extend arc
triples incrementally and cache hashes.  Random sequences of Hurwitz,
rotate and stabilize moves on arc-carrying matching-fiber data check,
after every step, that:

  * every cached class equals the evaluation of its word;
  * every arc has the canonical form of the same arc rebuilt with no
    cached state;
  * the datum equals, and hashes like, a datum rebuilt through the public
    constructors, which evaluate every word;
  * hurwitz_left after hurwitz_right at one position restores the
    classes and words.
"""

from hypothesis import given, settings, strategies as st

from lefweave.arcs import MatchingArc, apply_half_twist, induced_word, \
    standard_arc
from lefweave.fibers import ak_matching_fiber
from lefweave.lattice import SphereClass, TwistWord, evaluate_word
from lefweave.presentation import LefschetzDatum, VanishingCycle, \
    hurwitz_left, hurwitz_right, rotate, stabilize

MOVES = ("hurwitz_left", "hurwitz_right", "rotate", "stabilize")
MAX_STEPS = 8


@st.composite
def scenarios(draw):
    m = draw(st.sampled_from((3, 4, 5)))
    n = draw(st.sampled_from((2, 3)))
    edge = st.integers(1, m - 1)
    letter = st.none() | st.tuples(edge, st.sampled_from((-1, 1)))
    cycles = draw(st.lists(st.tuples(edge, letter), min_size=2, max_size=3))
    pairing = st.lists(st.integers(-1, 1), min_size=m - 1 + MAX_STEPS,
                       max_size=m - 1 + MAX_STEPS)
    steps = draw(st.lists(
        st.tuples(st.sampled_from(MOVES), st.integers(1, 6), pairing),
        min_size=1, max_size=MAX_STEPS))
    return m, n, cycles, steps


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
    """The same half-twist history with no cached gens, triple or form."""
    return MatchingArc(arc.system, arc.base_index,
                       tuple((fresh_arc(inner), power)
                             for inner, power in arc.word))


def fresh_class(s):
    return SphereClass(list(s.coords), label=s.label)


def rebuilt(D):
    lattice = D.fiber.lattice
    cycles = []
    for cyc in D.cycles:
        word = TwistWord([(fresh_class(c), e) for c, e in cyc.word.letters],
                         fresh_class(cyc.word.base))
        cycles.append(VanishingCycle(
            lattice, word,
            arc=None if cyc.arc is None else fresh_arc(cyc.arc),
            stabilization_sphere=cyc.stabilization_sphere,
            loose_certified=cyc.loose_certified))
    return LefschetzDatum(D.fiber, cycles, sf_spheres=D.sf_spheres)


def check_consistent(D):
    lattice = D.fiber.lattice
    for cyc in D.cycles:
        assert cyc.klass == evaluate_word(lattice, cyc.word)
        if cyc.arc is not None:
            assert cyc.arc.canonical() == fresh_arc(cyc.arc).canonical()
    twin = rebuilt(D)
    assert D == twin and twin == D
    assert hash(D) == hash(twin)
    for i in range(1, len(D.cycles) + 1):
        back = hurwitz_left(hurwitz_right(D, i), i)
        assert [c.klass for c in back.cycles] == [c.klass for c in D.cycles]
        assert [c.word for c in back.cycles] == [c.word for c in D.cycles]


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_random_moves_keep_engine_consistent(scenario):
    m, n, cycles, steps = scenario
    D = build(m, n, cycles)
    check_consistent(D)
    for number, (move, position, pairing) in enumerate(steps):
        k = len(D.cycles)
        if move == "rotate":
            D = rotate(D)
        elif move == "stabilize":
            rank = D.fiber.lattice.rank
            D = stabilize(D, pairing[:rank], "h%d" % number)
        elif move == "hurwitz_left":
            D = hurwitz_left(D, (position - 1) % k + 1)
        else:
            D = hurwitz_right(D, (position - 1) % k + 1)
        check_consistent(D)
