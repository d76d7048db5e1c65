"""Tests for the arc engine: isotopy keys, half-twist actions, classes.

Ground-truth cases frozen before implementation:
- t_a(a) = a for every standard arc (the twist fixes its own arc).
- t_2(std_1) is the arc (1,3) passing below p_2; its class is +-(e1+e2).
- t_2^2(std_1) is not isotopic to std_1 (coords differ) although its
  n=2 lattice class equals +-e1: squared twists are invisible to even
  homology but visible to isotopy.
- t_2^{-1}(std_1) and t_2(std_1) are distinct mirror routes.
- braid relations hold exhaustively for m <= 5; distant twists commute.

Endpoints, crossing counts, geometric intersection and canonical forms
come from the crossing-diagram oracle in tests/arc_oracle.py, which shares
no code with the engine's Dynnikov key. Its homological cross-check
(`odd_class`) computes classes from the reduced crossing diagram alone via
sheet-tracked signed counts in the branched double cover; it never applies
a twist formula, which makes the commuting square against the lattice
engine a genuine two-route test.
"""

import ast
import pathlib
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from lefweave.arcs import (
    ArcError,
    ArcSystem,
    MatchingArc,
    _dynnikov_key,
    apply_half_twist,
    arc_to_class,
    standard_arc,
)
from lefweave.lattice import IntLattice, pairing, twist_power

from arc_oracle import (
    canonical,
    coords,
    endpoints,
    geometric_intersection,
    odd_class,
)


def twist_by_word(sys, word, arc):
    """Apply a word in standard half-twists, leftmost letter outermost."""
    for k, e in reversed(word):
        arc = apply_half_twist(sys, standard_arc(sys, k), arc, power=e)
    return arc


def test_oracle_stays_independent_of_the_engine():
    """The diagram oracle takes from lefweave only SphereClass and
    ArcError, and never reads the key or the lattice twist route."""
    path = pathlib.Path(__file__).with_name("arc_oracle.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "lefweave"
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "lefweave":
                imported |= {alias.name for alias in node.names}
    assert imported == {"SphereClass", "ArcError"}
    engine = {"_dynnikov_key", "arc_to_class", "twist_power"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            assert node.id not in engine, node.id
        elif isinstance(node, ast.Attribute):
            # MatchingArc.key and its memo
            assert node.attr not in engine | {"key", "_key"}, node.attr


def test_standard_arc_shape():
    sys = ArcSystem(4, n=2)
    a1 = standard_arc(sys, 1)
    assert endpoints(a1) == (1, 2)
    assert coords(a1) == (0,) * 7  # 2m-1 entries, all zero for an edge arc
    with pytest.raises(ArcError):
        standard_arc(sys, 4)
    with pytest.raises(ArcError):
        standard_arc(sys, 0)


@pytest.mark.parametrize("build,message", (
    (lambda: ArcSystem(1), "at least 2 points"),
    (lambda: ArcSystem(3, n=0), "fiber dimension must be positive"),
    (lambda: apply_half_twist(ArcSystem(3), standard_arc(ArcSystem(4), 1),
                              standard_arc(ArcSystem(3), 1)),
     "different system"),
    (lambda: apply_half_twist(ArcSystem(3), standard_arc(ArcSystem(3), 1),
                              standard_arc(ArcSystem(4), 1)),
     "different system"),
    (lambda: ArcSystem(2.5), "must be integral"),
    (lambda: ArcSystem(3.0), "must be integral"),
    (lambda: ArcSystem("3"), "must be integral"),
    (lambda: ArcSystem(3, "2"), "must be integral"),
    (lambda: standard_arc(ArcSystem(4), 1.5), "must be integral"),
    (lambda: standard_arc(ArcSystem(4), "1"), "must be integral"),
    (lambda: apply_half_twist(ArcSystem(3), standard_arc(ArcSystem(3), 1),
                              standard_arc(ArcSystem(3), 2), power=1.5),
     "must be integral"),
    (lambda: apply_half_twist(ArcSystem(3), standard_arc(ArcSystem(3), 1),
                              standard_arc(ArcSystem(3), 2), power="1"),
     "must be integral"),
    (lambda: MatchingArc(ArcSystem(4), 1.5).key, "must be integral"),
    (lambda: MatchingArc(ArcSystem(4), "1").key, "must be integral"),
    (lambda: MatchingArc(ArcSystem(4), 0).key, "out of range"),
    (lambda: MatchingArc(ArcSystem(4), 4).key, "out of range"),
    (lambda: MatchingArc(4, 1).key, "needs an arc system"),
    (lambda: MatchingArc(ArcSystem(4), 1, ((1, 1),)).key,
     "different system"),
    (lambda: MatchingArc(ArcSystem(4), 1, ((None, 1.5),)).key,
     "different system"),
    (lambda: MatchingArc(ArcSystem(4), 1, 5).key,
     "must hold \\(arc, power\\) letters"),
    (lambda: MatchingArc(ArcSystem(4), 1,
                         (standard_arc(ArcSystem(4), 2),)).key,
     "must hold \\(arc, power\\) letters"),
    (lambda: MatchingArc(ArcSystem(4), 1,
                         ((standard_arc(ArcSystem(4), 2), 1.5),)).key,
     "must be integral"),
    (lambda: MatchingArc(ArcSystem(4), 1,
                         ((standard_arc(ArcSystem(5), 4), 1),)).key,
     "different system"),
), ids=("one-point", "n-0", "foreign-center", "foreign-target",
        "fractional-m", "float-m", "string-m", "string-n",
        "fractional-arc-index", "string-arc-index", "fractional-power",
        "string-power", "fractional-base-index", "string-base-index",
        "base-index-0", "base-index-m", "no-arc-system", "int-letter-arc",
        "no-letter-arc", "int-word", "bare-letter", "fractional-letter-power",
        "foreign-letter-arc"))
def test_a_malformed_arc_input_is_an_arc_error(build, message):
    with pytest.raises(ArcError, match=message):
        build()


def test_half_twist_fixes_own_arc():
    for m in (2, 3, 5):
        sys = ArcSystem(m, n=2)
        for k in range(1, m):
            a = standard_arc(sys, k)
            assert apply_half_twist(sys, a, a) == a


def test_a_zero_power_twist_is_the_identity():
    sys = ArcSystem(3, n=2)
    a1, a2 = standard_arc(sys, 1), standard_arc(sys, 2)
    assert apply_half_twist(sys, a2, a1, power=0) is a1
    # a zero-power letter reduces away
    idle = MatchingArc(sys, 1, ((a2, 0),))
    assert idle == a1 and idle.key == a1.key and hash(idle) == hash(a1)


def test_t2_of_std1_frozen():
    sys = ArcSystem(3, n=2)
    a1, a2 = standard_arc(sys, 1), standard_arc(sys, 2)
    b = apply_half_twist(sys, a2, a1)
    assert set(endpoints(b)) == {1, 3}
    # class is +-(e1+e2); the sign normalization makes it (1, 1)
    assert arc_to_class(sys, b).coords == (1, 1)
    # mirror route differs
    binv = apply_half_twist(sys, a2, a1, power=-1)
    assert set(endpoints(binv)) == {1, 3}
    assert b != binv


def test_squared_twist_fragility_gap():
    sys = ArcSystem(3, n=2)
    a1, a2 = standard_arc(sys, 1), standard_arc(sys, 2)
    b = twist_by_word(sys, [(2, 1), (2, 1)], a1)
    assert b != a1
    assert coords(b) != coords(a1)
    # but the even lattice class collapses back to +-e1
    assert arc_to_class(sys, b).coords == (1, 0)


def test_inverse_twist_inverts():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(2, 5)
        sys = ArcSystem(m, n=2)
        word = [
            (rng.randint(1, m - 1), rng.choice([-1, 1]))
            for _ in range(rng.randint(0, 5))
        ]
        a = twist_by_word(sys, word, standard_arc(sys, rng.randint(1, m - 1)))
        k = rng.randint(1, m - 1)
        g = standard_arc(sys, k)
        there = apply_half_twist(sys, g, a)
        back = apply_half_twist(sys, g, there, power=-1)
        assert back == a
        assert coords(back) == coords(a)


def test_braid_relations_exhaustive():
    for m in range(3, 6):
        sys = ArcSystem(m, n=2)
        targets = [standard_arc(sys, k) for k in range(1, m)]
        # one twisted arc to make the test see non-edges too
        targets.append(twist_by_word(sys, [(1, 1), (2, -1)], targets[0]))
        for i in range(1, m - 1):
            j = i + 1
            for a in targets:
                lhs = twist_by_word(sys, [(i, 1), (j, 1), (i, 1)], a)
                rhs = twist_by_word(sys, [(j, 1), (i, 1), (j, 1)], a)
                assert lhs == rhs
        for i in range(1, m):
            for j in range(i + 2, m):
                for a in targets:
                    lhs = twist_by_word(sys, [(i, 1), (j, 1)], a)
                    rhs = twist_by_word(sys, [(j, 1), (i, 1)], a)
                    assert lhs == rhs


def test_canonicalization_idempotent_and_word_insensitive():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(2, 5)
        sys = ArcSystem(m, n=2)
        word = [
            (rng.randint(1, m - 1), rng.choice([-1, 1]))
            for _ in range(rng.randint(0, 6))
        ]
        a = twist_by_word(sys, word, standard_arc(sys, rng.randint(1, m - 1)))
        # inserting a cancelling generator pair gives an isotopic arc
        k = rng.randint(1, m - 1)
        padded = twist_by_word(sys, [(k, 1), (k, -1)], a)
        assert a == padded
        assert coords(padded) == coords(a)
        assert endpoints(padded) == endpoints(a)


def test_geometric_intersection_basics():
    sys = ArcSystem(4, n=2)
    a1 = standard_arc(sys, 1)
    a2 = standard_arc(sys, 2)
    a3 = standard_arc(sys, 3)
    assert geometric_intersection(sys, a1, a1) == 0
    # shared endpoint does not count
    assert geometric_intersection(sys, a1, a2) == 0
    assert geometric_intersection(sys, a1, a3) == 0
    b = apply_half_twist(sys, a2, a1)  # arc (1,3) under the line
    assert geometric_intersection(sys, b, a2) == 0  # shares p3
    # t_2^2 is the twist along the boundary of a neighbourhood of a2,
    # which fixes a2, so the wound arc still avoids the gap segment
    sq = apply_half_twist(sys, a2, b)
    assert geometric_intersection(sys, sq, a2) == 0
    # interleaved endpoints force a crossing: (1,3) below p2 meets
    # (2,4) below p3 exactly once
    z = apply_half_twist(sys, a3, a2)
    assert geometric_intersection(sys, b, z) == 1
    assert geometric_intersection(sys, z, b) == 1


def test_disjoint_twists_commute():
    sys = ArcSystem(5, n=2)
    a1 = standard_arc(sys, 1)
    a3 = standard_arc(sys, 3)
    rng = random.Random(13)
    for _ in range(20):
        word = [
            (rng.randint(1, 4), rng.choice([-1, 1]))
            for _ in range(rng.randint(0, 4))
        ]
        target = twist_by_word(sys, word, standard_arc(sys, rng.randint(1, 4)))
        lhs = apply_half_twist(sys, a1, apply_half_twist(sys, a3, target))
        rhs = apply_half_twist(sys, a3, apply_half_twist(sys, a1, target))
        assert lhs == rhs


def test_pairing_bounded_by_geometric_intersection():
    # interior crossings lift twice to the double cover, shared endpoints
    # once (they are branch points): |<A,B>| <= 2 geo + shared
    rng = random.Random(17)
    for n in (2, 3):
        for _ in range(40):
            m = rng.randint(2, 5)
            sys = ArcSystem(m, n=n)

            def rand_arc():
                word = [
                    (rng.randint(1, m - 1), rng.choice([-1, 1]))
                    for _ in range(rng.randint(0, 5))
                ]
                return twist_by_word(
                    sys, word, standard_arc(sys, rng.randint(1, m - 1))
                )

            a, b = rand_arc(), rand_arc()
            shared = len(set(endpoints(a)) & set(endpoints(b)))
            geo = geometric_intersection(sys, a, b)
            assert geo == geometric_intersection(sys, b, a)
            p = pairing(
                sys.lattice, arc_to_class(sys, a), arc_to_class(sys, b)
            )
            assert abs(p) <= 2 * geo + shared


def test_commuting_square_two_routes():
    """Diagram-derived classes transform by the lattice transvection.

    The left route acts on arcs and reads the class off the reduced
    crossing diagram; the right route applies the odd-parity twist formula
    in the lattice. The two computations share no code.
    """
    rng = random.Random(21)
    for _ in range(50):
        m = rng.randint(2, 5)
        sys = ArcSystem(m, n=3)
        L = sys.lattice
        word = [
            (rng.randint(1, m - 1), rng.choice([-1, 1]))
            for _ in range(rng.randint(0, 6))
        ]
        a = twist_by_word(sys, word, standard_arc(sys, rng.randint(1, m - 1)))
        k = rng.randint(1, m - 1)
        e = rng.choice([-1, 1])
        image = apply_half_twist(sys, standard_arc(sys, k), a, power=e)
        lhs = odd_class(sys, image)
        rhs = twist_power(L, L.basis_sphere(k), odd_class(sys, a), e)
        assert lhs.coords == rhs.coords or lhs.coords == tuple(
            -c for c in rhs.coords
        )


def test_arc_to_class_agrees_with_diagram_route_for_odd_n():
    rng = random.Random(25)
    for _ in range(40):
        m = rng.randint(2, 5)
        sys = ArcSystem(m, n=3)
        word = [
            (rng.randint(1, m - 1), rng.choice([-1, 1]))
            for _ in range(rng.randint(0, 6))
        ]
        a = twist_by_word(sys, word, standard_arc(sys, rng.randint(1, m - 1)))
        via_word = arc_to_class(sys, a)
        via_diagram = odd_class(sys, a)
        neg = tuple(-c for c in via_diagram.coords)
        assert via_word.coords in (via_diagram.coords, neg)


def test_arc_to_class_sign_normalization():
    sys = ArcSystem(3, n=2)
    for k in (1, 2):
        cls = arc_to_class(sys, standard_arc(sys, k))
        first = next(c for c in cls.coords if c != 0)
        assert first > 0


def test_catalogue_contains_standard_arcs():
    sys = ArcSystem(4, n=2)
    assert set(sys.catalogue) >= {"a1", "a2", "a3"}
    assert sys.catalogue["a1"] == standard_arc(sys, 1)
    # an edge on another point count is another arc
    assert sys.catalogue["a1"] != standard_arc(ArcSystem(3, n=2), 1)


def test_mirror_windings_distinguished():
    # conjugate twists applied with opposite signs give mirror routes;
    # the sequence-valued canonical form tells them apart
    sys = ArcSystem(4, n=2)
    a1 = standard_arc(sys, 1)
    a3 = standard_arc(sys, 3)
    left = twist_by_word(sys, [(2, 1), (3, 1), (2, -1)], a1)
    right = twist_by_word(sys, [(2, 1), (3, -1), (2, -1)], a1)
    assert left != right


@st.composite
def histories(draw):
    """Arcs on ArcSystem(m) built by random half-twist histories.

    Centers are standard arcs or arcs built earlier, so histories nest.
    """
    m = draw(st.integers(3, 5))
    sys = ArcSystem(m, n=2)
    edge = st.integers(1, m - 1)
    built = []
    for _ in range(draw(st.integers(2, 6))):
        arc = standard_arc(sys, draw(edge))
        for _ in range(draw(st.integers(0, 3))):
            if built and draw(st.booleans()):
                center = draw(st.sampled_from(built))
            else:
                center = standard_arc(sys, draw(edge))
            arc = apply_half_twist(sys, center, arc,
                                   draw(st.sampled_from((-2, -1, 1, 2))))
        built.append(arc)
    return sys, built


# the canonical form can grow exponentially in the sigma-letters, so the
# oracle only sees arcs with short ones
ORACLE_LETTERS = 40


@settings(max_examples=150, deadline=None)
@given(histories())
def test_history_equality_lazy_triples_match_canonical(drawn):
    """`==`, `hash` and the key agree on every pair; the canonical form
    agrees with them on every pair of arcs short enough for it."""
    sys, built = drawn
    checked = 0
    # the oracle is the test's cost, so each arc's form is computed once;
    # keyed by identity, since equal arcs must each get their own form
    forms = {}

    def form(arc):
        if id(arc) not in forms:
            forms[id(arc)] = canonical(arc)
        return forms[id(arc)]

    for a in built:
        for b in built:
            assert (a == b) == (a.key == b.key)
            if a == b:
                assert hash(a) == hash(b)
            if max(len(a._mapping_gens()),
                   len(b._mapping_gens())) <= ORACLE_LETTERS:
                assert (a == b) == (form(a) == form(b))
                checked += 1
    event("oracle-checked pairs: %d%%"
          % (100 * checked // len(built) ** 2 // 10 * 10))


# group laws of the key update, on arbitrary integer vectors


@st.composite
def key_vectors(draw, least=3):
    m = draw(st.integers(least, 6))
    u = tuple(draw(st.lists(st.integers(-40, 40), min_size=2 * (m - 2),
                            max_size=2 * (m - 2))))
    return m, u


@settings(max_examples=200, deadline=None)
@given(key_vectors(), st.data())
def test_key_update_inverse(drawn, data):
    m, u = drawn
    k = data.draw(st.integers(1, m - 1))
    assert _dynnikov_key(u, ((k, 1), (k, -1))) == u
    assert _dynnikov_key(u, ((k, -1), (k, 1))) == u


@settings(max_examples=200, deadline=None)
@given(key_vectors(), st.data())
def test_key_update_braid_relation(drawn, data):
    m, u = drawn
    k = data.draw(st.integers(1, m - 2))
    s = data.draw(st.sampled_from((-1, 1)))
    lhs = ((k, s), (k + 1, s), (k, s))
    rhs = ((k + 1, s), (k, s), (k + 1, s))
    assert _dynnikov_key(u, lhs) == _dynnikov_key(u, rhs)


@settings(max_examples=200, deadline=None)
@given(key_vectors(least=4), st.data())
def test_key_update_far_commutation(drawn, data):
    m, u = drawn
    i = data.draw(st.integers(1, m - 3))
    j = data.draw(st.integers(i + 2, m - 1))
    s, t = data.draw(st.sampled_from((-1, 1))), data.draw(
        st.sampled_from((-1, 1)))
    assert (_dynnikov_key(u, ((i, s), (j, t)))
            == _dynnikov_key(u, ((j, t), (i, s))))


def test_standard_edge_keys():
    # all a_i are 0; b_{k-1} = -1 if k >= 2 and b_k = +1 if k <= m-2
    assert standard_arc(ArcSystem(2), 1).key == ()
    sys3 = ArcSystem(3)
    assert [standard_arc(sys3, k).key for k in (1, 2)] == [(0, 1), (0, -1)]
    sys4 = ArcSystem(4)
    assert [standard_arc(sys4, k).key for k in (1, 2, 3)] == [
        (0, 0, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1)]
    for m in range(3, 7):
        sys = ArcSystem(m)
        for k in range(1, m):
            edge = standard_arc(sys, k).key
            # a half-twist fixes its own edge and every edge apart from it
            for j in range(1, m):
                if abs(j - k) != 1:
                    for s in (-1, 1):
                        assert _dynnikov_key(edge, ((j, s),)) == edge
