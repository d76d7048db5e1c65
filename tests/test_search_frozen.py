"""Frozen search results: exact certificates, moves in order.

The expected values were recorded from the move engine before it became
incremental (classes derived from cached classes, cached hashes, shared
stabilize embeddings).  Any change to class values, dedup keys or child
order shows up here as a different certificate or a different miss.
"""

import pytest

from lefweave import presets
from lefweave.arcs import apply_half_twist, induced_word, standard_arc
from lefweave.certify import Certificate, search_certificate, \
    verify_certificate
from lefweave.fibers import ak_matching_fiber
from lefweave.presentation import LefschetzDatum, VanishingCycle

WIDTH = 10000


def arc_datum(m, n, spec):
    """Cycles on the m-point disk: (base edge, [(center edge, power)], sphere).

    Letters are listed outermost first, as in a twist word.
    """
    fiber = ak_matching_fiber(m, n)
    system = fiber.arc_system
    cycles = []
    for base, letters, sphere in spec:
        arc = standard_arc(system, base)
        for center, power in reversed(letters):
            arc = apply_half_twist(system, standard_arc(system, center), arc,
                                   power)
        cycles.append(VanishingCycle(fiber.lattice,
                                     induced_word(system, arc), arc=arc,
                                     stabilization_sphere=sphere))
    return LefschetzDatum(fiber, cycles)


def _cert(moves, certifications):
    return Certificate(tuple(moves), tuple(certifications), "flexible")


ARC_CASES = [
    ("m3-loose", (3, 2, [(1, [], True), (2, [(1, 1)], False)]),
     _cert([("certify_loose", (1,))], [(2, "loose_pair")])),
    ("m3-square", (3, 2, [(2, [], True), (1, [(2, 2)], False)]),
     _cert([("hurwitz_right", (2,)), ("certify_loose", (2,))],
           [(1, "loose_pair")])),
    ("m3-stabilize", (3, 2, [(1, [], False)]),
     _cert([("stabilize", ((1, 0), "s3")), ("hurwitz_left", (2,)),
            ("certify_loose", (1,))], [(2, "loose_pair")])),
    ("m4-stabilize", (4, 2, [(2, [(1, -1)], False)]),
     _cert([("stabilize", ((1, 0, 0), "s4")), ("hurwitz_left", (2,)),
            ("certify_loose", (1,))], [(2, "loose_pair")])),
    ("m3-odd-stabilize", (3, 1, [(2, [(1, 1)], False)]),
     _cert([("stabilize", ((1, 0), "s3")), ("hurwitz_left", (2,)),
            ("certify_loose", (1,))], [(2, "loose_pair")])),
    ("m4-n3-wrap", (4, 3, [(3, [], False), (1, [(2, 1)], True)]),
     _cert([("hurwitz_left", (2,)), ("certify_loose", (1,))],
           [(2, "loose_pair")])),
    ("m4-miss", (4, 2, [(2, [], True), (1, [(2, -1)], False),
                        (3, [], False)]),
     None),
    ("m4-odd-miss", (4, 1, [(3, [], True), (2, [(3, -1)], False),
                            (1, [], False)]),
     None),
]


@pytest.mark.parametrize("name,spec,expected", ARC_CASES,
                         ids=[case[0] for case in ARC_CASES])
def test_arc_data_search_frozen(name, spec, expected):
    D = arc_datum(*spec)
    found = search_certificate(D, 3, WIDTH)
    assert found == expected
    if found is not None:
        assert verify_certificate(D, found).accepted


@pytest.mark.parametrize("depth", [4, 5])
def test_x1_search_frozen(depth):
    assert search_certificate(presets.x1(), depth, WIDTH) is None


def test_x2_search_frozen():
    expected = _cert([("hurwitz_right", (2,)), ("certify_loose", (2,))],
                     [(3, "loose_pair")])
    assert search_certificate(presets.x2(), 1, WIDTH) is None
    for depth in (2, 4):
        found = search_certificate(presets.x2(), depth, WIDTH)
        assert found == expected
        assert verify_certificate(presets.x2(), found).accepted
