"""Tests for total-space invariants of Lefschetz data.

Chain model: one 0-cell and `rank` n-cells from the fiber, plus one
(n+1)-cell per vanishing cycle with boundary its homology class.  So
H_{n+1} = ker d, H_n = coker d, H_0 = Z, everything else vanishes, and
chi = chi(fiber) + (-1)^(n+1) k.

Frozen values (hand-checked):

  * W(A2, n=2; e1, tau^2_{e2}e1): d = [[1,1],[0,0]], so H0=Z, H2=Z,
    H3=Z, chi=1.  Middle form on H3 is skew of rank 1, hence zero.
  * k=0 datum over A2, n=2: H0=Z, H2=Z^2, chi=3.
  * W(A1, n=3; Z, Z): d=[1,1], H4=Z generated by t1-t2,
    Q(t1-t2, t1-t2) = 2*delta - <e,e> = 2 (delta=+1 at n=3, diagonal
    gram entries vanish for odd n); chi = 2 = chi(S^4).
  * W(A1, n=3; Z, Z, Z): kernel rank 2, form is the A2 Cartan matrix in
    some unimodular basis: invariants (rank 2, |det| 3, signature 2).
  * W(A1, n=2; Z, Z, Z): plumbing of two D*S^3.  The zero sections meet
    once, so the skew middle form is (rank 2, |det| 1).
  * n=3 A2, cycles (e1, e1+2e2): d = [[1,1],[0,2]], SNF divisors (1,2),
    so H3 = Z/2, H4 = 0, chi = 1.
  * Partial subflexibilization of W(A2, n=3; e1, e1) on cycle 2 with disk
    pairings (1,0): d = [[1,1],[0,0],[0,-2]], so H3 goes from Z to
    Z + Z/2 and H4 from Z to 0.
"""

import random

import pytest

from lefweave import invariants
from lefweave.fibers import FiberModel, PlumbingTree, ak_matching_fiber, \
    plumbing_lattice
from lefweave.invariants import (
    InvariantError,
    form_invariants,
    middle_intersection_form,
    total_space_homology,
    total_space_invariants,
)
from lefweave.lattice import IntLattice, SphereClass, TwistWord
from lefweave.presentation import (
    LefschetzDatum,
    VanishingCycle,
    boundary_connect_sum,
    hurwitz_left,
    hurwitz_right,
    rotate,
    stabilize,
    subflexibilize,
    trivial_cycle,
)


def path_datum(k_vertices, n, cycle_coords):
    fiber = plumbing_lattice(PlumbingTree.path(k_vertices, prefix="e"), n)
    cycles = tuple(
        trivial_cycle(fiber, SphereClass(tuple(c))) for c in cycle_coords
    )
    return LefschetzDatum(fiber, cycles)


def x1_datum():
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 2)
    e1 = fiber.basis_sphere("e1")
    e2 = fiber.basis_sphere("e2")
    twisted = VanishingCycle(fiber.lattice, TwistWord(((e2, 2),), e1))
    return LefschetzDatum(fiber, (trivial_cycle(fiber, e1), twisted))


def groups(inv):
    return {deg: (free, tor) for deg, free, tor in inv.homology}


def test_x1_frozen():
    inv = total_space_invariants(x1_datum())
    assert inv.n == 2
    assert inv.chi == 1
    assert inv.homology == (
        (0, 1, ()),
        (1, 0, ()),
        (2, 1, ()),
        (3, 1, ()),
    )
    assert inv.middle_form == ((0,),)
    assert inv.middle_symmetry == "antisymmetric"
    assert inv.form_invariants == (0, 1, None)
    assert total_space_homology(x1_datum()).chi == 1


def test_fiber_times_disk():
    D = path_datum(2, 2, [])
    inv = total_space_homology(D)
    assert inv.homology == (
        (0, 1, ()),
        (1, 0, ()),
        (2, 2, ()),
        (3, 0, ()),
    )
    assert inv.chi == 3
    assert total_space_homology(D).chi == 3


def test_balls():
    empty = LefschetzDatum(FiberModel(IntLattice((), 2), ()), ())
    inv = total_space_invariants(empty)
    assert groups(inv) == {0: (1, ()), 1: (0, ()), 2: (0, ()), 3: (0, ())}
    assert inv.chi == 1
    assert inv.middle_form == ()
    # one cycle canceling the one fiber sphere also gives a ball
    cancel = path_datum(1, 2, [(1,)])
    assert groups(total_space_homology(cancel)) == groups(inv)


def test_cotangent_s3_presentation():
    D = path_datum(1, 2, [(1,), (1,)])
    inv = total_space_invariants(D)
    assert groups(inv) == {0: (1, ()), 1: (0, ()), 2: (0, ()), 3: (1, ())}
    assert inv.chi == 0
    # skew form in odd kernel rank... here the only pairing cancels
    assert inv.middle_form == ((0,),)
    assert inv.middle_symmetry == "antisymmetric"


def test_matching_sphere_form():
    D = path_datum(1, 3, [(1,), (1,)])
    inv = total_space_invariants(D)
    assert groups(inv) == {0: (1, ()), 1: (0, ()), 2: (0, ()),
                           3: (0, ()), 4: (1, ())}
    assert inv.chi == 2
    assert inv.middle_form == ((2,),)
    assert inv.middle_symmetry == "symmetric"
    assert inv.form_invariants == (1, 2, 1)


def test_a2_milnor_eight_manifold():
    D = path_datum(1, 3, [(1,), (1,), (1,)])
    inv = total_space_invariants(D)
    assert inv.chi == 3
    assert groups(inv)[4] == (2, ())
    assert inv.form_invariants == (2, 3, 2)
    assert inv.middle_symmetry == "symmetric"


def test_plumbing_six_manifold_skew_form():
    # W(A1, n=2; Z, Z, Z) presents the plumbing of two copies of D*S^3:
    # the zero sections t1-t2 and t2-t3 cross in a single point, so the
    # skew middle form is unimodular of rank 2 with entries in {0,+-1}.
    D = path_datum(1, 2, [(1,), (1,), (1,)])
    inv = total_space_invariants(D)
    assert groups(inv)[3] == (2, ())
    assert inv.middle_symmetry == "antisymmetric"
    assert inv.form_invariants == (2, 1, None)
    assert sorted({abs(x) for row in inv.middle_form for x in row}) == [0, 1]


def test_odd_twisted_cycle_torsion_frozen():
    D = path_datum(2, 3, [(1, 0), (1, 2)])
    inv = total_space_homology(D)
    assert groups(inv) == {0: (1, ()), 1: (0, ()), 2: (0, ()),
                           3: (0, (2,)), 4: (0, ())}
    assert inv.chi == 1


def test_partial_sf_synthetic_a2():
    before = path_datum(2, 3, [(1, 0), (1, 0)])
    inv0 = total_space_homology(before)
    assert groups(inv0)[3] == (1, ())
    assert groups(inv0)[4] == (1, ())
    after = subflexibilize(before, [None, (1, 0)])
    inv1 = total_space_homology(after)
    assert groups(inv1)[3] == (1, (2,))
    assert groups(inv1)[4] == (0, ())


def test_sf_shadow_even():
    D = path_datum(1, 2, [(1,), (1,)])
    twisted = subflexibilize(D, [(1,), (1,)])
    shadow_fiber = twisted.fiber
    shadow = LefschetzDatum(
        shadow_fiber,
        tuple(
            trivial_cycle(shadow_fiber, SphereClass((1, 0, 0)))
            for _ in range(2)
        ),
    )
    assert total_space_homology(twisted).homology == \
        total_space_homology(shadow).homology
    assert total_space_homology(twisted).chi == \
        total_space_homology(shadow).chi


def test_bsum_adds():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice((2, 3))
        d1 = random_datum(rng, n)
        d2 = random_datum(rng, n)
        i1 = total_space_homology(d1)
        i2 = total_space_homology(d2)
        both = total_space_homology(boundary_connect_sum(d1, d2))
        assert both.chi == i1.chi + i2.chi - 1
        g1, g2, g = groups(i1), groups(i2), groups(both)
        for deg in g:
            if deg == 0:
                assert g[deg] == (1, ())
            else:
                free = g1.get(deg, (0, ()))[0] + g2.get(deg, (0, ()))[0]
                assert g[deg][0] == free


def random_datum(rng, n, max_rank=3, max_k=4):
    # Cycles are twisted basis spheres, so their classes are always
    # legal twist centers (self-pairing +-2 for even n) and Hurwitz
    # moves never reject them.
    rank = rng.randint(1, max_rank)
    fiber = plumbing_lattice(PlumbingTree.path(rank, prefix="e"), n)
    basis = [fiber.basis_sphere(lab) for lab in fiber.basis_labels]
    cycles = []
    for _ in range(rng.randint(2, max_k)):
        letters = tuple(
            (rng.choice(basis), rng.choice((-1, 1)))
            for _ in range(rng.randint(0, 3))
        )
        word = TwistWord(letters, rng.choice(basis))
        cycles.append(VanishingCycle(fiber.lattice, word))
    return LefschetzDatum(fiber, tuple(cycles))


def comparable(inv):
    return (inv.homology, inv.chi, inv.middle_symmetry, inv.form_invariants)


def test_moves_preserve_invariants_sample():
    # n = 1 and 5 come last, so the earlier groups keep their seed stream
    rng = random.Random(31)
    for dims in ((2, 3), (4,), (1, 5)):
        for _ in range(40):
            D = random_datum(rng, rng.choice(dims))
            want = comparable(total_space_invariants(D))
            for _ in range(6):
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
                got = comparable(total_space_invariants(D))
                # stabilization adds one canceling pair in degrees n, n+1
                assert got == want


def test_hurwitz_preserves_form_at_n1():
    # at n = 1 mod 4 the diagonal sphere_self_pairing(n + 1) is -2 while
    # odd-n twists keep the sign they have at n = 3; the thimble sign
    # on the off-diagonal entries makes the form a move invariant
    fiber = plumbing_lattice(PlumbingTree.path(2, prefix="e"), 1)
    D = LefschetzDatum(fiber, tuple(
        trivial_cycle(fiber, SphereClass(c))
        for c in ((-1, 1), (-1, 0), (0, 1))))
    before = total_space_invariants(D).form_invariants
    assert before == (1, 2, -1)
    assert total_space_invariants(hurwitz_right(D, 3)).form_invariants \
        == before


def test_form_invariants_helper():
    assert form_invariants(((2, -1), (-1, 2)), True) == (2, 3, 2)
    assert form_invariants(((0, 1), (-1, 0)), False) == (2, 1, None)
    assert form_invariants(((0,),), True) == (0, 1, 0)
    assert form_invariants(((-2,),), True) == (1, 2, -1)
    assert form_invariants(((2, 0), (0, -3)), True) == (2, 6, 0)
    assert form_invariants(((2, 2), (2, 2)), True) == (1, 2, 1)
    assert form_invariants((), True) == (0, 1, 0)
    assert form_invariants((), False) == (0, 1, None)


def test_middle_form_move_stability_frozen():
    # the A2 Cartan invariants survive a Hurwitz move even though the
    # matrix itself is written in an SNF basis
    D = path_datum(1, 3, [(1,), (1,), (1,)])
    moved = hurwitz_left(D, 2)
    a = total_space_invariants(D)
    b = total_space_invariants(moved)
    assert a.form_invariants == b.form_invariants == (2, 3, 2)
    assert middle_intersection_form(D) is not None


def _sympy_signature(sympy, matrix):
    """Signature from the characteristic polynomial: its roots are all
    real, so Descartes' sign changes count them exactly."""
    x = sympy.Symbol("x")
    poly = sympy.Matrix(matrix).charpoly(x)

    def changes(coeffs):
        signs = [c > 0 for c in coeffs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    coeffs = poly.all_coeffs()
    mirrored = [c if (len(coeffs) - 1 - i) % 2 == 0 else -c
                for i, c in enumerate(coeffs)]
    return changes(coeffs) - changes(mirrored)


def test_signature_repairs_zero_pivots():
    # a zero diagonal entry with a nonzero row sends _signature through
    # its pivot repair; the hyperbolic plane is the smallest such form
    assert form_invariants(((0, 1), (1, 0)), True) == (2, 1, 0)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    for _ in range(400):
        size = rng.randint(2, 5)
        M = [[0] * size for _ in range(size)]
        for i in range(size):
            M[i][i] = rng.choice((0, 0, rng.randint(-3, 3)))
            for j in range(i + 1, size):
                M[i][j] = M[j][i] = rng.randint(-3, 3)
        rank, _, signature = form_invariants(M, True)
        assert rank == sympy.Matrix(M).rank()
        assert signature == _sympy_signature(sympy, M), M
    # large entries: the fraction-free pivots grow as minors, and every
    # trailing division must stay exact
    for _ in range(60):
        size = rng.randint(2, 6)
        M = [[0] * size for _ in range(size)]
        for i in range(size):
            M[i][i] = rng.choice((0, rng.randint(-10**6, 10**6)))
            for j in range(i + 1, size):
                M[i][j] = M[j][i] = rng.randint(-10**6, 10**6)
        assert form_invariants(M, True)[2] == _sympy_signature(sympy, M), M
    # rank deficiency: a sum of r < size signed squares, so some rows
    # reduce to zero and the elimination must skip them
    for _ in range(80):
        size = rng.randint(2, 6)
        terms = [(rng.choice((-1, 1)),
                  [rng.choice((0, rng.randint(-50, 50))) for _ in range(size)])
                 for _ in range(rng.randint(0, size - 1))]
        M = [[sum(s * v[i] * v[j] for s, v in terms) for j in range(size)]
             for i in range(size)]
        rank, _, signature = form_invariants(M, True)
        assert rank == sympy.Matrix(M).rank() < size
        assert signature == _sympy_signature(sympy, M), M


def test_homology_off_the_euler_formula_raises(monkeypatch):
    # the internal check: the homology's chi must be the formula's
    formula = invariants._euler_formula
    monkeypatch.setattr(invariants, "_euler_formula",
                        lambda D: formula(D) + 1)
    with pytest.raises(InvariantError,
                       match="homology disagrees with the Euler formula"):
        total_space_homology(x1_datum())


def test_a_half_integral_kernel_pairing_raises():
    # the internal check: (1, 0) and (0, 1) span no kernel of d for the
    # cycles e1 and e2 at n = 1, and they pair to 1/2
    fiber = ak_matching_fiber(3, 1)
    D = LefschetzDatum(fiber, tuple(
        trivial_cycle(fiber, fiber.basis_sphere(label))
        for label in ("e1", "e2")))
    with pytest.raises(InvariantError,
                       match="kernel pairing is not integral") as err:
        invariants._middle_form(D, [(1, 0), (0, 1)])
    assert err.value.context == {"doubled": -1}
