"""The move engine's caches keep every check they stand in for.

Each cache below remembers work that passed a check, so the check runs
once rather than once per search child:

  * a lattice remembers the twist centers it has accepted;
  * a fiber looks up a cached child by its exact (pairings, label) key
    before it coerces and re-validates the inputs;
  * a stabilized fiber builds its sphere cycle once;
  * a fiber hashes its share of a datum's key once;
  * the search asks the loose-pair rule's verdict before it builds a
    certify_loose child, so it calls rule_loose_pair only on pairs the
    rule certifies and the rule never raises under it.

The tests check that what the caches skip could not have failed: bad
centers, labels, lengths and cycles are still rejected, and equal data
built apart still compare and hash equal.
"""

import pytest

from lefweave import certify
from lefweave.certify import search_certificate
from lefweave.fibers import FiberError, PlumbingTree, ak_matching_fiber, \
    attach_stabilizing_handle, plumbing_lattice
from lefweave.lattice import IntLattice, LatticeError, SphereClass, \
    TwistWord, evaluate_word, twist_power
from lefweave.dsl import parse
from lefweave.presentation import LefschetzDatum, MoveError, \
    VanishingCycle, hurwitz_left, rotate, stabilize, trivial_cycle

# A2 at n = 2: every center must self-pair to -2
A2 = IntLattice(((-2, 1), (1, -2)), 2)
# the same spheres plumbed with the other sign
A2_MINUS = IntLattice(((-2, -1), (-1, -2)), 2)
X = SphereClass((1, 0))


def test_invalid_center_raises_on_every_call():
    L = IntLattice(A2.gram, 2)
    bad = SphereClass((1, -1))  # self-pairing -6
    for _ in range(2):
        with pytest.raises(LatticeError, match="invalid twist center"):
            twist_power(L, bad, X, 1)
    # even exponents act trivially, but the center is still checked
    with pytest.raises(LatticeError):
        twist_power(L, bad, X, 2)
    for good in ((1, 0), (0, 1), (1, 1)):
        twist_power(L, SphereClass(good), X, 1)
    with pytest.raises(LatticeError):
        twist_power(L, bad, X, 1)
    assert bad.coords not in L._centers


def test_accepted_center_is_checked_again_in_another_lattice():
    center = SphereClass((1, 1))
    assert twist_power(A2, center, X, 1) == SphereClass((0, -1))
    with pytest.raises(LatticeError):
        twist_power(A2_MINUS, center, X, 1)
    # a lattice equal to the first, built apart, checks it afresh
    twin = IntLattice(A2.gram, 2)
    assert center.coords not in twin._centers
    assert twist_power(twin, center, X, 1) == SphereClass((0, -1))


def test_remembered_center_twists_as_before():
    L = IntLattice(A2.gram, 2)
    center = SphereClass((0, 1))
    first = [twist_power(L, center, X, e) for e in range(-3, 4)]
    again = [twist_power(L, center, X, e) for e in range(-3, 4)]
    assert first == again
    assert first[3] == X
    assert twist_power(L, center, X, 1) == SphereClass((1, 1))
    # a remembered center still needs a class of the lattice's rank
    with pytest.raises(LatticeError):
        twist_power(L, center, SphereClass((1, 0, 0)), 1)


def test_cached_child_keeps_the_label_and_length_checks():
    F = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 2)
    child, sphere = attach_stabilizing_handle(F, (1, 0), "s1")
    with pytest.raises(FiberError, match="label already used"):
        attach_stabilizing_handle(F, (1, 0), "e1")
    with pytest.raises(FiberError, match="length"):
        attach_stabilizing_handle(F, (1, 0, 0), "s1")
    with pytest.raises(FiberError, match="length"):
        attach_stabilizing_handle(F, (1,), "s1")
    # on the child, the cached key's label is now a basis label
    with pytest.raises(FiberError, match="label already used"):
        attach_stabilizing_handle(child, (1, 0, 0), "s1")
    for pairings in ((1, 0), [1, 0], (True, False)):
        again, s_again = attach_stabilizing_handle(F, pairings, "s1")
        assert again is child and s_again is sphere
    # text is no integer, even where int() would read it
    with pytest.raises(FiberError, match="integral"):
        attach_stabilizing_handle(F, ["1", "0"], "s1")


def _arc_datum(fiber):
    """Two cycles on the standard arcs of a 3-point matching fiber, the
    first one a stabilization sphere."""
    return LefschetzDatum(fiber, [
        trivial_cycle(fiber, fiber.basis_sphere("e1"),
                      stabilization_sphere=True),
        trivial_cycle(fiber, fiber.basis_sphere("e2")),
    ])


def test_stabilize_children_share_one_sphere_cycle():
    D = _arc_datum(ak_matching_fiber(3, 2))
    parents = [D, rotate(D), hurwitz_left(D, 1)]
    children = [stabilize(P, (0, 1), "s3") for P in parents]
    children += [stabilize(P, [0, 1], "s3") for P in parents]
    fiber = children[0].fiber
    sphere_cycle = children[0].cycles[-1]
    for child in children:
        assert child.fiber is fiber
        assert child.cycles[-1] is sphere_cycle
    assert sphere_cycle.stabilization_sphere
    assert not sphere_cycle.loose_certified
    assert not sphere_cycle.word.letters
    assert sphere_cycle.klass == evaluate_word(fiber.lattice,
                                               sphere_cycle.word)
    assert sphere_cycle.klass == fiber.basis_sphere("s3")
    # another handle gets its own cycle
    other = stabilize(D, (1, 0), "s3")
    assert other.fiber is not fiber
    assert other.cycles[-1].klass == other.fiber.basis_sphere("s3")
    grown = stabilize(other, (0, 0, 1), "s4")
    assert grown.cycles[-1].klass == grown.fiber.basis_sphere("s4")
    assert grown.cycles[-2].klass.coords == (0, 0, 1, 0)


def test_equal_fibers_built_apart_give_equal_data():
    D1 = _arc_datum(ak_matching_fiber(3, 2))
    D2 = _arc_datum(ak_matching_fiber(3, 2))
    assert D1.fiber is not D2.fiber
    assert D1 == D2 and hash(D1) == hash(D2)
    S1 = stabilize(hurwitz_left(D1, 1), (1, 0), "s3")
    S2 = stabilize(hurwitz_left(D2, 1), [1, 0], "s3")
    assert S1.fiber is not S2.fiber
    assert S1 == S2 and hash(S1) == hash(S2)
    assert len({D1, D2, S1, S2}) == 2
    # a different fiber key keeps the data apart
    D3 = _arc_datum(ak_matching_fiber(3, 3))
    assert D3 != D1


def test_datum_still_rejects_a_cycle_of_the_wrong_length():
    fiber = ak_matching_fiber(3, 2)
    short = VanishingCycle(IntLattice(((-2,),), 2),
                           TwistWord((), SphereClass((1,))))
    with pytest.raises(MoveError, match="does not live"):
        LefschetzDatum(fiber, [short])
    good = trivial_cycle(fiber, fiber.basis_sphere("e1"))
    with pytest.raises(MoveError) as err:
        LefschetzDatum(fiber, [good, short])
    assert err.value.context["position"] == 2


def test_search_only_tries_certify_behind_a_sphere(monkeypatch):
    """The search hands rule_loose_pair no step it would reject, for its
    lead or for any other reason; tests/test_search_shortcut.py checks
    the results against a search that tries every step."""
    D = _arc_datum(ak_matching_fiber(3, 2))
    leads = []
    refused = []
    rule = certify.rule_loose_pair

    def watched(datum, i):
        leads.append(datum.cycles[i - 1].stabilization_sphere)
        try:
            return rule(datum, i)
        except certify.CertifyError as err:
            refused.append(err)
            raise

    monkeypatch.setattr(certify, "rule_loose_pair", watched)
    assert search_certificate(D, 1, 10000) is None
    cert = search_certificate(D, 3, 30)
    assert cert.moves == (("hurwitz_left", (1,)), ("certify_loose", (2,)))
    assert leads and all(leads)
    assert not refused


def test_value_types_reject_attribute_assignment():
    # one shared guard: the caches above are written past it, and no
    # caller can set an attribute or find a __dict__ to set it in
    fiber = ak_matching_fiber(3, 2)
    cycle = trivial_cycle(fiber, X)
    values = [
        A2, X, TwistWord((), X), cycle, LefschetzDatum(fiber, [cycle]),
        PlumbingTree(["a"]), fiber, parse("fiber a = ak 3 n=2\n"),
    ]
    names = [type(value).__name__ for value in values]
    assert names == ["IntLattice", "SphereClass", "TwistWord",
                     "VanishingCycle", "LefschetzDatum", "PlumbingTree",
                     "FiberModel", "Workspace"]
    for name, value in zip(names, values):
        assert not hasattr(value, "__dict__"), name
        for attr in ("label", "extra"):
            with pytest.raises(AttributeError) as err:
                setattr(value, attr, None)
            assert str(err.value) == "%s is immutable" % name
