"""Deep half-twist histories: search, scripts and long move chains.

Arc equality goes through the Dynnikov key, whose cost is linear in the
sigma-letters; the canonical form it replaced grew exponentially in them.
These inputs pin that: each one exhausted memory or ran for minutes while
equality went through the canonical form.

D_deep is the datum on the A_2 matching fiber (3 marked points, n = 2)
whose three cycles start on a1, a2, a1 (the first a stabilization
sphere), and whose arcs then get three half-twists each, applied in list
order as (standard centre arc, power). Each cycle's word is the induced
word of its arc.
"""

import contextlib
import random
import signal
import time
import tracemalloc

import pytest

from lefweave.arcs import ArcSystem, apply_half_twist, arc_to_class, \
    induced_word, standard_arc
from lefweave.certify import search_certificate
from lefweave.cli import main
from lefweave.fibers import ak_matching_fiber
from lefweave.lattice import SphereClass, TwistWord, twist_power
from lefweave.presentation import LefschetzDatum, VanishingCycle, \
    hurwitz_left

D_DEEP = (
    (1, ((2, 2), (2, 2), (2, -1))),
    (2, ((2, 2), (1, 1), (1, 2))),
    (1, ((2, 2), (2, -1), (1, 2))),
)


@contextlib.contextmanager
def wall_clock_cap(seconds):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError("over the %s s wall-clock cap" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def d_deep():
    fiber = ak_matching_fiber(3, 2)
    system = fiber.arc_system
    cycles = []
    for position, (base, twists) in enumerate(D_DEEP):
        arc = standard_arc(system, base)
        for center, power in twists:
            arc = apply_half_twist(system, standard_arc(system, center), arc,
                                   power)
        cycles.append(VanishingCycle(
            fiber.lattice, induced_word(system, arc), arc=arc,
            stabilization_sphere=position == 0))
    return LefschetzDatum(fiber, cycles)


def test_d_deep_depth_3_finds_nothing():
    with wall_clock_cap(20):
        assert search_certificate(d_deep(), 3, 1000) is None


def test_d_deep_depth_7_is_bounded():
    D = d_deep()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with wall_clock_cap(30):
            search_certificate(D, 7, 1000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 30
    # about 6 MB when measured; the canonical form ran past 2 GB at depth 4
    assert peak < 64 * 2 ** 20


def test_hurwitz_chain_script(tmp_path, capsys):
    path = tmp_path / "chain.lef"
    path.write_text(
        "fiber a = ak 3 n=2\n"
        "datum D over a = [arc(1,2; a1), arc(2,3; a2)]\n"
        "script S on D {\n" + "  hurwitzL 1;\n" * 40 + "}\n"
        "verify S\n"
        "print invariants S\n"
        "search S depth=3 width=1000\n",
        encoding="utf-8")
    with wall_clock_cap(30):
        status = main(["run", str(path)])
    captured = capsys.readouterr()
    assert status in (0, 1)
    assert captured.err == ""


def test_long_move_chain_stays_linear():
    fiber = ak_matching_fiber(3, 2)
    system = fiber.arc_system
    cycles = [VanishingCycle(fiber.lattice,
                             induced_word(system, standard_arc(system, k)),
                             arc=standard_arc(system, k)) for k in (1, 2)]
    D = LefschetzDatum(fiber, cycles)
    with wall_clock_cap(60):
        for _ in range(2000):
            D = hurwitz_left(D, 1)
        first, second = (cyc.arc for cyc in D.cycles)
        # the two histories differ, so this compares keys
        assert first != second
    assert max(len(first._mapping_gens()), len(second._mapping_gens())) \
        <= 3000


def hurwitz_chain(system, moves, seed=None):
    """The arcs of (a1, a2) after ``moves`` Hurwitz moves at position 1:
    all hurwitz_left without a seed, else a seeded mix of left and
    right."""
    rng = random.Random(seed)
    first, second = standard_arc(system, 1), standard_arc(system, 2)
    for _ in range(moves):
        if seed is None or rng.random() < 0.5:
            first, second = apply_half_twist(system, first, second, 1), first
        else:
            first, second = second, apply_half_twist(system, second, first,
                                                     -1)
    return first, second


def recursive_class(system, arc):
    """The unnormalized class as first written: every inner arc is
    re-evaluated at each use, exponential in the nesting."""
    lattice = system.lattice
    v = lattice.basis_sphere(arc.base_index)
    for inner, power in reversed(arc.word):
        v = twist_power(lattice, recursive_class(system, inner), v, power)
    return v


def normalized(v):
    first = next((c for c in v.coords if c), 1)
    return SphereClass(tuple(c if first > 0 else -c for c in v.coords))


@pytest.mark.parametrize("seed", [None, 40])
def test_equal_40_move_histories_built_apart_compare_quickly(seed):
    # equality once recursed through the inner arcs of both words, for
    # tens of seconds on the all-left chain; it compares flat sigma-letters
    first = hurwitz_chain(ArcSystem(3), 40, seed)
    second = hurwitz_chain(ArcSystem(3), 40, seed)
    assert all(a is not b for a, b in zip(first, second))
    with wall_clock_cap(2):
        assert first == second
        assert [hash(arc) for arc in first] == [hash(arc) for arc in second]


def test_induced_word_of_a_40_move_chain_is_quick():
    system = ArcSystem(3)
    arcs = hurwitz_chain(system, 40)
    # the recursive evaluation took 0.23 s at 22 moves, growing about
    # 1.6-fold a move
    with wall_clock_cap(5):
        words = [induced_word(system, arc) for arc in arcs]
    assert [len(word.letters) for word in words] == [20, 20]


def test_induced_word_matches_the_recursive_evaluation():
    for moves in range(13):
        for seed in (None, moves):
            arcs = hurwitz_chain(ArcSystem(3), moves, seed)
            # the same arcs, asked for their classes in two lattices
            for system in (ArcSystem(3, n=2), ArcSystem(3, n=3)):
                for arc in arcs:
                    expected = TwistWord(
                        tuple((normalized(recursive_class(system, inner)), p)
                              for inner, p in arc.word),
                        system.lattice.basis_sphere(arc.base_index))
                    assert induced_word(system, arc) == expected
                    assert arc_to_class(system, arc) == normalized(
                        recursive_class(system, arc))
