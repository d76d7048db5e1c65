"""Tests for the certificate layer.

Looseness is purely syntactic: the only granting pattern is a
stabilization-sphere cycle S directly before a cycle whose word is
(S, +1) * w with |<S, eval(w)>| = 1.  Frozen values (hand-derived):

  * Pipeline on SF(W(A1, n=2; Z, Z)): records ((1,"s1"), (2,"s2"));
    moves = insert s1 after 1, insert s2 after 3, hurwitz_right at 1
    and 3, certify-loose at 1 and 3; final cycles
    (S1, tau_{s1}e, S2, tau_{s2}e) with classes
    ((0,1,0), (1,1,0), (0,0,1), (1,0,1)); exactly 2 Hurwitz moves.
  * X2-shaped datum (e1*, tau^2_{e2}e1, e2*, e4*) over the A4 lattice:
    two-step certificate (hurwitz_right 2, certify-loose 2) accepted;
    the bounded search finds exactly that certificate at depth 2, and
    nothing at depth 1.
  * X1-shaped datum (e1*, tau^2_{e2}e1): no certificate at depth <= 4
    (the word head tau_{e2}^2 can never match a fresh handle's sphere).

(* marks the stabilization_sphere flag.)
"""

import random

import pytest

from lefweave import LefweaveError, presets
from lefweave.certify import (
    Certificate,
    CertifyError,
    apply_step,
    flexify_after_handles,
    insert_sphere,
    replay,
    rule_loose_pair,
    search_certificate,
    verify_certificate,
)
from lefweave.fibers import FiberModel, PlumbingTree, \
    attach_stabilizing_handle, plumbing_lattice
from lefweave.invariants import total_space_invariants
from lefweave.lattice import IntLattice, SphereClass, TwistWord
from lefweave.presentation import (
    LefschetzDatum,
    VanishingCycle,
    rotate,
    subflexibilize,
    trivial_cycle,
)


def handle_fiber(n=2, hit=1, label="s"):
    base = plumbing_lattice(PlumbingTree.path(1, prefix="e"), n)
    return attach_stabilizing_handle(base, (hit,), label)


def loose_ready_datum(n=2):
    """(S*, tau_S e) with <S, e> = 1: the certifiable pattern."""
    fiber, s = handle_fiber(n)
    e = fiber.basis_sphere("e1")
    return LefschetzDatum(fiber, (
        trivial_cycle(fiber, s, stabilization_sphere=True),
        VanishingCycle(fiber.lattice, TwistWord(((s, 1),), e)),
    ))


def x2_datum():
    fiber = plumbing_lattice(PlumbingTree.path(4, prefix="e"), 2)
    e1 = fiber.basis_sphere("e1")
    e2 = fiber.basis_sphere("e2")
    e4 = fiber.basis_sphere("e4")
    return LefschetzDatum(fiber, (
        trivial_cycle(fiber, e1, stabilization_sphere=True),
        VanishingCycle(fiber.lattice, TwistWord(((e2, 2),), e1)),
        trivial_cycle(fiber, e2, stabilization_sphere=True),
        trivial_cycle(fiber, e4, stabilization_sphere=True),
    ))


def x1_datum():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 2)
    e1 = fiber.basis_sphere("e1")
    e2 = fiber.basis_sphere("e2")
    return LefschetzDatum(fiber, (
        trivial_cycle(fiber, e1, stabilization_sphere=True),
        VanishingCycle(fiber.lattice, TwistWord(((e2, 2),), e1)),
    ))


def cotangent_pair():
    base = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    e = base.basis_sphere("e1")
    return LefschetzDatum(
        base, (trivial_cycle(base, e), trivial_cycle(base, e)))


def comparable(inv):
    return (inv.homology, inv.chi, inv.middle_symmetry, inv.form_invariants)


def test_rule_loose_pair_accepts():
    D = loose_ready_datum()
    out = rule_loose_pair(D, 1)
    assert out.cycles[1].loose_certified
    assert out.cycles[1].word == D.cycles[1].word
    assert out.cycles[1].klass == D.cycles[1].klass
    assert out.cycles[0] == D.cycles[0]
    assert not D.cycles[1].loose_certified


def test_rule_loose_pair_wraparound():
    D = loose_ready_datum()
    flipped = LefschetzDatum(D.fiber, (D.cycles[1], D.cycles[0]))
    out = rule_loose_pair(flipped, 2)
    assert out.cycles[0].loose_certified
    assert out.cycles[1] == flipped.cycles[1]


def test_rule_loose_pair_sign_tolerance():
    # tau_{-S} = tau_S, so a negated head center still matches.
    fiber, s = handle_fiber()
    e = fiber.basis_sphere("e1")
    neg = SphereClass(tuple(-c for c in s.coords))
    D = LefschetzDatum(fiber, (
        trivial_cycle(fiber, s, stabilization_sphere=True),
        VanishingCycle(fiber.lattice, TwistWord(((neg, 1),), e)),
    ))
    assert rule_loose_pair(D, 1).cycles[1].loose_certified


def test_rule_loose_pair_rejections():
    fiber, s = handle_fiber()
    e = fiber.basis_sphere("e1")
    lattice = fiber.lattice
    sphere = trivial_cycle(fiber, s, stabilization_sphere=True)
    unflagged = trivial_cycle(fiber, s)

    def check(cycles, i, fragment, context=None):
        try:
            rule_loose_pair(LefschetzDatum(fiber, cycles), i)
        except CertifyError as err:
            assert fragment in str(err)
            assert context is None or err.context == context
        else:
            raise AssertionError("expected rejection: " + fragment)

    good_word = VanishingCycle(lattice, TwistWord(((s, 1),), e))
    check((unflagged, good_word), 1, "stabilization sphere")
    check((sphere, VanishingCycle(lattice, TwistWord(((s, 2),), e))), 1,
          "single twist")
    check((sphere, VanishingCycle(lattice, TwistWord(((e, 1),), e))), 1,
          "single twist")
    check((sphere, trivial_cycle(fiber, e)), 1, "no twist letter")
    # the position checks, before any verdict
    check((sphere, good_word), 0, "out of range", {"i": 0, "k": 2})
    check((sphere, good_word), 3, "out of range", {"i": 3, "k": 2})
    check((sphere, good_word), 1.5, "must be integral", {"values": (1.5,)})
    check((sphere,), 1, "at least two cycles", {"k": 1})
    # the transverse-point hypothesis: a handle missing the cycle
    fiber0, s0 = handle_fiber(hit=0)
    e0 = fiber0.basis_sphere("e1")
    D0 = LefschetzDatum(fiber0, (
        trivial_cycle(fiber0, s0, stabilization_sphere=True),
        VanishingCycle(fiber0.lattice, TwistWord(((s0, 1),), e0)),
    ))
    try:
        rule_loose_pair(D0, 1)
    except CertifyError as err:
        assert "exactly once" in str(err)
    else:
        raise AssertionError("expected transverse-point rejection")


def test_insert_sphere():
    fiber, s = handle_fiber()
    e = fiber.basis_sphere("e1")
    D = LefschetzDatum(fiber, (trivial_cycle(fiber, e),),
                       sf_spheres=((1, "s"),))
    out = insert_sphere(D, 1, "s")
    assert len(out.cycles) == 2
    assert out.cycles[1].stabilization_sphere
    assert out.cycles[1].klass == s
    assert out.sf_spheres == ()  # inserting is a move: provenance drops
    front = insert_sphere(D, 0, "s")
    assert front.cycles[0].stabilization_sphere
    for bad_args, fragment in (
        ((1, "e1"), "stabilizing sphere"),
        ((5, "s"), "out of range"),
    ):
        try:
            insert_sphere(D, *bad_args)
        except CertifyError as err:
            assert fragment in str(err)
        else:
            raise AssertionError("expected error: " + fragment)


def test_verify_x2_two_step_certificate():
    D = x2_datum()
    cert = Certificate(
        (("hurwitz_right", (2,)), ("certify_loose", (2,))),
        ((3, "loose_pair"),),
        "flexible",
    )
    res = verify_certificate(D, cert)
    assert res.accepted
    assert res.reason is None
    assert len(res.trace) == 3
    assert res.trace[-1].startswith("accepted")


def test_verify_rejects_empty_certificate_on_x1():
    res = verify_certificate(x1_datum(), Certificate((), (), "flexible"))
    assert not res.accepted
    assert "cycle 2" in res.reason


def test_verify_rejects_bad_claims_and_summaries():
    D = x2_datum()
    moves = (("hurwitz_right", (2,)), ("certify_loose", (2,)))
    subcritical = Certificate(moves, ((3, "loose_pair"),), "subcritical")
    res = verify_certificate(D, subcritical)
    assert not res.accepted and "subcritical" in res.reason
    wrong_summary = Certificate(moves, ((2, "loose_pair"),), "flexible")
    res = verify_certificate(D, wrong_summary)
    assert not res.accepted and "summary" in res.reason
    unknown = Certificate(moves, ((3, "loose_pair"),), "grand")
    assert not verify_certificate(D, unknown).accepted


def test_verify_reports_failing_step():
    D = x2_datum()
    cert = Certificate((("hurwitz_right", (9,)),), (), "flexible")
    res = verify_certificate(D, cert)
    assert not res.accepted
    assert res.reason.startswith("step 1")
    bad_tag = Certificate((("warp", ()),), (), "flexible")
    assert not verify_certificate(D, bad_tag).accepted
    fiber, s = handle_fiber()
    one = LefschetzDatum(
        fiber, (trivial_cycle(fiber, s, stabilization_sphere=True),))
    for datum, step, reason in (
            (one, ("certify_loose", (1,)),
             "need at least two cycles to certify"),
            (D, ("bsum", ("X",)), "bsum argument must be a datum")):
        res = verify_certificate(datum, Certificate((step,), (), "flexible"))
        assert not res.accepted
        assert res.reason == "step 1: " + reason


def test_verify_rejects_wrong_arity_steps():
    D = x2_datum()
    for step in (("hurwitz_left", ()), ("stabilize", ((1, 0, 0, 0),)),
                 ("hurwitz_left", (1, 2)), ("rotate", (1,))):
        res = verify_certificate(D, Certificate((step,), (), "flexible"))
        assert not res.accepted
        assert res.reason.startswith("step 1:")
        assert "wrong number of step arguments" in res.reason


def test_verify_rejects_malformed_steps():
    D = presets.preset("x1")
    pair = "a step must be a (tag, args) pair"
    for step, reason in (
            (("hurwitz_right", (2.0,)), "move position must be integral"),
            (("certify_loose", (1.5,)), "certify position must be integral"),
            (("insert_sphere", (1.5, "e2")),
             "insert position must be integral"),
            (("insert_sphere", (1, ["e2"])),
             "label does not name a stabilizing sphere"),
            (("hurwitz_left", ("1",)), "move position must be integral"),
            (("subflex", (None,)), "disk pairings must be a sequence"),
            (("rotate",), pair), ("rotate", pair), (("rotate", None), pair),
            ((["rotate"], ()), pair)):
        res = verify_certificate(D, Certificate((step,), (), "flexible"))
        assert not res.accepted
        assert res.reason == "step 1: " + reason
        assert res.trace[-1].endswith(" -> error: " + reason)
    # an int handle label beside the fiber's str ones is a fiber label
    unit = (1,) + (0,) * (D.fiber.lattice.rank - 1)
    res = verify_certificate(
        D, Certificate((("stabilize", (unit, 1)),), (), "flexible"))
    assert not res.accepted and res.reason.startswith("cycle ")


X2_MOVES = (("hurwitz_right", (2,)), ("certify_loose", (2,)))


@pytest.mark.parametrize("cert", (
    Certificate(None, (), "flexible"), Certificate(5, (), "flexible"),
    Certificate(X2_MOVES, None, "flexible"),
    Certificate(X2_MOVES, 5, "flexible"), ("x",), None))
def test_verify_rejects_a_malformed_certificate(cert):
    res = verify_certificate(presets.x2(), cert)
    assert not res.accepted
    assert res.reason == "malformed certificate"
    assert res.trace == ("rejected: malformed certificate",)
    assert res.final is None


def test_verify_marks_wraparound_in_trace():
    D = loose_ready_datum()
    flipped = LefschetzDatum(D.fiber, (D.cycles[1], D.cycles[0]))
    cert = Certificate((("certify_loose", (2,)),), ((1, "loose_pair"),),
                       "flexible")
    res = verify_certificate(flipped, cert)
    assert res.accepted
    assert "[wrap]" in res.trace[0]


class Ix:
    """An integral position that is no int: it has __index__ alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def flipped_loose_datum():
    """(tau_S e, S*): the loose pair sits at position k = 2."""
    D = loose_ready_datum()
    return LefschetzDatum(D.fiber, D.cycles[::-1])


@pytest.mark.parametrize("build,moves,summary", (
    (presets.x2, (("hurwitz_right", (2,)), ("certify_loose", (2,))),
     ((3, "loose_pair"),)),
    (flipped_loose_datum, (("certify_loose", (2,)),), ((1, "loose_pair"),)),
    (presets.x1, (("insert_sphere", (2, "e2")), ("hurwitz_right", (2,)),
                  ("certify_loose", (2,))), ((3, "loose_pair"),)),
), ids=("x2", "wrap", "insert"))
def test_an_index_only_position_verifies_as_its_int(build, moves, summary):
    # the engine reads positions with operator.index; the summary, the
    # trace's [wrap] mark and the shadow must read them the same way
    D = build()
    indexed = tuple((tag, (Ix(args[0]),) + args[1:]) for tag, args in moves)
    expected = verify_certificate(D, Certificate(moves, summary, "flexible"))
    assert expected.accepted
    assert verify_certificate(
        D, Certificate(indexed, summary, "flexible")) == expected
    final, cert = replay(D, indexed)
    assert (final, cert.certifications, cert.terminal_claim) == (
        expected.final, summary, "flexible")


def test_verify_accepts_all_sphere_datum_as_subcritical():
    fiber, s = handle_fiber()
    D = LefschetzDatum(
        fiber, (trivial_cycle(fiber, s, stabilization_sphere=True),))
    for claim in ("subcritical", "flexible"):
        assert verify_certificate(D, Certificate((), (), claim)).accepted


def test_certificate_keeps_invariants():
    # hurwitz/rotate/stabilize/certify steps never change the total
    # space, so accepted certificates built from them fix invariants.
    D = x2_datum()
    cert = Certificate(
        (("rotate", ()), ("rotate", ()), ("rotate", ()), ("rotate", ()),
         ("hurwitz_right", (2,)), ("certify_loose", (2,))),
        ((3, "loose_pair"),),
        "flexible",
    )
    res = verify_certificate(D, cert)
    assert res.accepted
    final = res.final
    assert comparable(total_space_invariants(final)) == \
        comparable(total_space_invariants(D))


def test_flexify_pipeline_frozen():
    D_sf = subflexibilize(cotangent_pair(), [(1,), (1,)])
    assert D_sf.sf_spheres == ((1, "s1"), (2, "s2"))
    D_t, cert = flexify_after_handles(D_sf)
    assert cert.moves == (
        ("insert_sphere", (1, "s1")),
        ("insert_sphere", (3, "s2")),
        ("hurwitz_right", (1,)),
        ("hurwitz_right", (3,)),
        ("certify_loose", (1,)),
        ("certify_loose", (3,)),
    )
    assert cert.certifications == ((2, "loose_pair"), (4, "loose_pair"))
    assert cert.terminal_claim == "flexible"
    assert sum(tag.startswith("hurwitz") for tag, _ in cert.moves) == 2
    assert len(D_t.cycles) == 4
    # tau^-1_S tau^2_S collapses to a single letter tau_S
    assert [c.klass.coords for c in D_t.cycles] == [
        (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)]
    for pos in (1, 3):
        word = D_t.cycles[pos].word
        assert len(word.letters) == 1
        assert word.letters[0][1] == 1
        assert D_t.cycles[pos].loose_certified
    for pos in (0, 2):
        assert D_t.cycles[pos].stabilization_sphere
    res = verify_certificate(D_sf, cert)
    assert res.accepted
    assert res.final == D_t


def test_flexify_x1_figure_row():
    # One added vanishing cycle and one Hurwitz move:
    # (V1, tau^2_{S2}V1) -> (V1, S2, tau_{S2}V1).
    fiber, s2 = handle_fiber(label="e2")
    e1 = fiber.basis_sphere("e1")
    D = LefschetzDatum(
        fiber,
        (trivial_cycle(fiber, e1, stabilization_sphere=True),
         VanishingCycle(fiber.lattice, TwistWord(((s2, 2),), e1))),
        sf_spheres=((2, "e2"),),
    )
    D_t, cert = flexify_after_handles(D)
    assert cert.moves == (
        ("insert_sphere", (2, "e2")),
        ("hurwitz_right", (2,)),
        ("certify_loose", (2,)),
    )
    assert len(D_t.cycles) == 3
    assert D_t.cycles[1].klass == s2
    assert D_t.cycles[2].word.letters[0][0].coords == s2.coords
    assert D_t.cycles[2].klass.coords == (1, 1)
    assert verify_certificate(D, cert).accepted


def test_flexify_trivial_and_error_cases():
    base = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    empty = LefschetzDatum(base, ())
    D_t, cert = flexify_after_handles(subflexibilize(empty, []))
    assert cert == Certificate((), (), "subcritical")
    assert verify_certificate(empty, cert).accepted
    assert D_t == empty
    # missing provenance
    try:
        flexify_after_handles(cotangent_pair())
    except CertifyError as err:
        assert "subflexibilization" in str(err)
    else:
        raise AssertionError("expected provenance error")
    # provenance cleared by a later move
    D_sf = subflexibilize(cotangent_pair(), [(1,), (1,)])
    try:
        flexify_after_handles(rotate(D_sf))
    except CertifyError:
        pass
    else:
        raise AssertionError("expected provenance error after a move")
    # a cycle that was neither subflexibilized nor a sphere
    partial = subflexibilize(cotangent_pair(), [(1,), None])
    try:
        flexify_after_handles(partial)
    except CertifyError as err:
        assert "cycle 2" in str(err)
    else:
        raise AssertionError("expected coverage error")


def test_full_script_certificate_from_base_datum():
    # subflex and the pipeline steps replayed as one certificate
    D = cotangent_pair()
    cert = Certificate(
        (("subflex", (((1,), (1,)),)),
         ("insert_sphere", (1, "s1")),
         ("insert_sphere", (3, "s2")),
         ("hurwitz_right", (1,)),
         ("hurwitz_right", (3,)),
         ("certify_loose", (1,)),
         ("certify_loose", (3,))),
        ((2, "loose_pair"), (4, "loose_pair")),
        "flexible",
    )
    assert verify_certificate(D, cert).accepted


def test_bsum_certificate():
    fiber, s = handle_fiber()
    one = LefschetzDatum(
        fiber, (trivial_cycle(fiber, s, stabilization_sphere=True),))
    cert = Certificate((("bsum", (one,)),), (), "subcritical")
    res = verify_certificate(one, cert)
    assert res.accepted
    assert len(res.final.cycles) == 2
    assert res.final.fiber.lattice.rank == 4


def test_bsum_with_an_empty_summand():
    # either order leaves x2, so x2's certificate follows the bsum
    empty = LefschetzDatum(FiberModel(IntLattice((), 2), ()), ())
    x2 = presets.x2()
    steps = (("hurwitz_right", (2,)), ("certify_loose", (2,)))
    for D, other in ((x2, empty), (empty, x2)):
        cert = Certificate((("bsum", (other,)),) + steps,
                           ((3, "loose_pair"),), "flexible")
        res = verify_certificate(D, cert)
        assert res.accepted, res.reason
        assert res.final.fiber.lattice.gram == x2.fiber.lattice.gram


def test_search_finds_x2_certificate():
    D = x2_datum()
    found = search_certificate(D, 2, 1000)
    assert found == Certificate(
        (("hurwitz_right", (2,)), ("certify_loose", (2,))),
        ((3, "loose_pair"),),
        "flexible",
    )
    assert verify_certificate(D, found).accepted
    assert search_certificate(D, 1, 1000) is None
    assert search_certificate(D, 2, 1000) == found  # deterministic


def test_search_canonical_order_prefers_ascending_positions():
    base = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    fiber, s = attach_stabilizing_handle(base, (1,), "s")
    fiber, t = attach_stabilizing_handle(fiber, (1, 0), "t")
    e = fiber.basis_sphere("e1")
    lattice = fiber.lattice
    s = fiber.basis_sphere("s")
    D = LefschetzDatum(fiber, (
        trivial_cycle(fiber, s, stabilization_sphere=True),
        VanishingCycle(lattice, TwistWord(((s, 1),), e)),
        trivial_cycle(fiber, t, stabilization_sphere=True),
        VanishingCycle(lattice, TwistWord(((t, 1),), e)),
    ))
    found = search_certificate(D, 2, 1000)
    assert found.moves == (
        ("certify_loose", (1,)), ("certify_loose", (3,)))
    assert found.certifications == (
        (2, "loose_pair"), (4, "loose_pair"))


def test_search_x1_bounded_none():
    assert search_certificate(x1_datum(), 3, 500) is None


def test_search_immediate_accepts():
    base = plumbing_lattice(PlumbingTree.path(1, prefix="e"), 2)
    empty = LefschetzDatum(base, ())
    assert search_certificate(empty, 4, 10) == \
        Certificate((), (), "subcritical")
    fiber, s = handle_fiber()
    spheres = LefschetzDatum(
        fiber, (trivial_cycle(fiber, s, stabilization_sphere=True),))
    assert search_certificate(spheres, 0, 10) == \
        Certificate((), (), "subcritical")


def test_search_validates_bounds():
    D = x1_datum()
    for depth, width in ((-1, 10), (2, 0), (2.0, 10), (2, 2.5), (2, "10")):
        try:
            search_certificate(D, depth, width)
        except CertifyError:
            pass
        else:
            raise AssertionError("expected bounds error")


def test_pipeline_property_random():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.choice((2, 3))
        rank = rng.randint(1, 4)
        fiber = plumbing_lattice(PlumbingTree.path(rank, prefix="e"), n)
        k = rng.randint(1, 4)
        picks = [rng.randrange(rank) for _ in range(k)]
        cycles = tuple(
            trivial_cycle(fiber, fiber.basis_sphere(fiber.basis_labels[j]))
            for j in picks
        )
        D = LefschetzDatum(fiber, cycles)
        disks = []
        for j in picks:
            vec = [0] * rank
            vec[j] = rng.choice((-1, 1))
            disks.append(tuple(vec))
        D_sf = subflexibilize(D, disks)
        D_t, cert = flexify_after_handles(D_sf)
        assert len(D_t.cycles) == 2 * k
        assert sum(tag.startswith("hurwitz") for tag, _ in cert.moves) == k
        res = verify_certificate(D_sf, cert)
        assert res.accepted
        assert all(c.loose_certified or c.stabilization_sphere
                   for c in res.final.cycles)


def _single_step_mutations(moves):
    """Each certificate with one step dropped, its position argument
    shifted by one either way, or its tag swapped for another of
    hurwitz_left, hurwitz_right and certify_loose."""
    swappable = ("hurwitz_left", "hurwitz_right", "certify_loose")
    for i, (tag, args) in enumerate(moves):
        before, after = moves[:i], moves[i + 1:]
        yield before + after
        for shift in (-1, 1):
            yield before + ((tag, (args[0] + shift,) + args[1:]),) + after
        if tag in swappable:
            for other in swappable:
                if other != tag:
                    yield before + ((other, args),) + after


def test_single_step_mutations_are_rejected_at_their_step():
    cases = [
        (presets.x2(), search_certificate(presets.x2(), 2, 1000)),
        (presets.x1_plus_cycle(),
         search_certificate(presets.x1_plus_cycle(), 2, 1000)),
        (presets.x1(), flexify_after_handles(presets.x1())[1]),
    ]
    tried = 0
    for D, cert in cases:
        assert verify_certificate(D, cert).accepted
        for moves in _single_step_mutations(cert.moves):
            tried += 1
            res = verify_certificate(D, cert._replace(moves=moves))
            assert not res.accepted
            # the first step the move engine rejects, if any
            current, failed = D, None
            for idx, step in enumerate(moves, start=1):
                try:
                    current = apply_step(current, step)
                except LefweaveError:
                    failed = idx
                    break
            if failed is None:
                assert not res.reason.startswith("step ")
            else:
                assert res.reason.startswith("step %d: " % failed)
    assert tried == 33
