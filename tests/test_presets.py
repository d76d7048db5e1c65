"""Tests for the built-in preset data.

Frozen values (hand-derived):

  * x1 over A2 (n=2): cycles (e1*, tau^2_{e2} e1), boundary (e1, e1):
    homology Z, 0, Z, Z in degrees 0..3, chi = 1.  Flexification runs
    (insert e2 after 2, hurwitz_right 2, certify-loose 2) and ends on
    classes ((1,0), (0,1), (1,1)) -- exactly one Hurwitz move.
  * x1_plus_cycle: (e1*, tau^2_{e2} e1, e2*); boundary (e1, e1, e2):
    homology Z, 0, 0, Z, chi = 0; certificate (hurwitz_right 2,
    certify-loose 2) accepted.
  * x2 over A4: boundary (e1, e1, e2, e4) leaves e3 alive: homology
    Z, 0, Z, Z, chi = 1; the same two-step certificate is accepted
    and rediscovered verbatim by search at depth 2.

(* marks the stabilization_sphere flag.)
"""

from lefweave.arcs import arc_to_class, standard_arc
from lefweave.certify import (
    Certificate,
    flexify_after_handles,
    search_certificate,
    verify_certificate,
)
from lefweave.invariants import total_space_homology
from lefweave.presets import PRESETS, PresetError, preset, x1, \
    x1_plus_cycle, x2

A2_GRAM = ((-2, 1), (1, -2))
A4_GRAM = (
    (-2, 1, 0, 0),
    (1, -2, 1, 0),
    (0, 1, -2, 1),
    (0, 0, 1, -2),
)

TWO_STEP = Certificate(
    (("hurwitz_right", (2,)), ("certify_loose", (2,))),
    ((3, "loose_pair"),),
    "flexible",
)


def homology_ranks(D):
    return tuple(free for _, free, _ in total_space_homology(D).homology)


def test_x1_shape():
    D = x1()
    assert D.fiber.lattice.gram == A2_GRAM
    assert D.fiber.lattice.n == 2
    assert D.fiber.basis_labels == ("e1", "e2")
    assert D.fiber.stabilizing_spheres == {"e2": (1,)}
    assert D.sf_spheres == ((2, "e2"),)
    assert len(D.cycles) == 2
    first, second = D.cycles
    assert first.stabilization_sphere
    assert first.klass.coords == (1, 0)
    assert first.word.letters == ()
    assert not second.stabilization_sphere
    assert second.klass.coords == (1, 0)
    ((center, exp),) = second.word.letters
    assert (center.coords, exp) == ((0, 1), 2)


def test_x1_arcs_show_the_fragility_gap():
    D = x1()
    sys = D.fiber.arc_system
    a1 = standard_arc(sys, 1)
    assert D.cycles[0].arc == a1
    # the re-twisted cycle: same class as e1, different arc
    assert D.cycles[1].arc != a1
    assert arc_to_class(sys, D.cycles[1].arc).coords == (1, 0)


def test_x1_homology():
    D = x1()
    inv = total_space_homology(D)
    assert inv.homology == ((0, 1, ()), (1, 0, ()), (2, 1, ()), (3, 1, ()))
    assert inv.chi == 1


def test_x1_flexify_figure_row():
    D = x1()
    final, cert = flexify_after_handles(D)
    assert cert.moves == (
        ("insert_sphere", (2, "e2")),
        ("hurwitz_right", (2,)),
        ("certify_loose", (2,)),
    )
    assert sum(1 for tag, _ in cert.moves if "hurwitz" in tag) == 1
    assert cert.terminal_claim == "flexible"
    assert tuple(c.klass.coords for c in final.cycles) == (
        (1, 0), (0, 1), (1, 1))
    res = verify_certificate(D, cert)
    assert res.accepted and res.final == final


def test_x1_plus_cycle():
    D = x1_plus_cycle()
    assert D.sf_spheres == ()
    assert [c.klass.coords for c in D.cycles] == [(1, 0), (1, 0), (0, 1)]
    assert [c.stabilization_sphere for c in D.cycles] == [True, False, True]
    assert homology_ranks(D) == (1, 0, 0, 1)
    res = verify_certificate(D, TWO_STEP)
    assert res.accepted
    assert res.final.cycles[2].klass.coords == (1, 1)


def test_x2_shape_and_homology():
    D = x2()
    assert D.fiber.lattice.gram == A4_GRAM
    assert D.fiber.stabilizing_spheres == {
        "e2": (1, 1, 0), "e4": (0, 0, 1)}
    assert [c.klass.coords for c in D.cycles] == [
        (1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
    assert [c.stabilization_sphere for c in D.cycles] == [
        True, False, True, True]
    assert all(c.arc is not None for c in D.cycles)
    # e3 has no cycle over it, so one fiber class survives
    assert homology_ranks(D) == (1, 0, 1, 1)
    assert total_space_homology(D).chi == 1


def test_x2_certificate_and_search():
    D = x2()
    res = verify_certificate(D, TWO_STEP)
    assert res.accepted
    assert res.final.cycles[2].word.letters[0][1] == 1
    assert search_certificate(D, 2, 1000) == TWO_STEP
    assert search_certificate(D, 1, 1000) is None


def test_preset_lookup():
    assert sorted(PRESETS) == ["x1", "x1_plus_cycle", "x2"]
    assert preset("x1") == x1()
    try:
        preset("x3")
    except PresetError as err:
        assert err.context["known"] == ["x1", "x1_plus_cycle", "x2"]
    else:
        raise AssertionError("expected unknown-preset error")


def test_presets_rebuild_identically():
    for name in PRESETS:
        assert preset(name) == preset(name)
