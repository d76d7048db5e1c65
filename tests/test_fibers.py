"""Tests for plumbing-tree fibers and stabilizing handles.

Frozen values:
- A2 path, n=2: gram [[-2,1],[1,-2]], det 3 (hand expansion: 4-1).
- single vertex n=2: [[-2]]; n=4: [[2]] (diagonal (-1)^{n(n+1)/2} * 2).
- A2 path, n=3: [[0,1],[-1,0]].
- det(gram(A_k, n=2)) = (-1)^k (k+1), checked against cofactor expansion.
- attaching a handle to A1 (n=2) with pairing [1] gives the A2 gram.
"""

import gc
import random
import weakref

import pytest

from lefweave.arcs import ArcSystem
from lefweave.fibers import (
    FiberError,
    FiberModel,
    PlumbingTree,
    ak_matching_fiber,
    attach_stabilizing_handle,
    plumbing_lattice,
)
from lefweave.lattice import smith_normal_form


def det(M):
    """Cofactor expansion, exact integers; the independent oracle."""
    size = len(M)
    if size == 0:
        return 1
    if size == 1:
        return M[0][0]
    total = 0
    for j in range(size):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * M[0][j] * det(minor)
    return total


def test_a2_plumbing_frozen():
    tree = PlumbingTree(["u", "v"], [("u", "v")])
    F = plumbing_lattice(tree, 2)
    assert F.lattice.gram == ((-2, 1), (1, -2))
    assert det([list(r) for r in F.lattice.gram]) == 3
    assert F.basis_labels == ("u", "v")
    assert F.stabilizing_spheres == frozenset()
    assert F.arc_system is None


def test_single_vertex_parities():
    t = PlumbingTree(["v"])
    assert plumbing_lattice(t, 2).lattice.gram == ((-2,),)
    assert plumbing_lattice(t, 4).lattice.gram == ((2,),)
    assert plumbing_lattice(t, 3).lattice.gram == ((0,),)


def test_a2_plumbing_odd():
    tree = PlumbingTree(["u", "v"], [("u", "v")])
    F = plumbing_lattice(tree, 3)
    assert F.lattice.gram == ((0, 1), (-1, 0))


def test_tree_validation():
    with pytest.raises(FiberError):
        PlumbingTree([])
    with pytest.raises(FiberError):
        PlumbingTree(["a", "a"])
    with pytest.raises(FiberError):
        PlumbingTree(["a"], [("a", "b")])
    with pytest.raises(FiberError):
        PlumbingTree(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(FiberError):
        PlumbingTree(["a", "b"], [("a", "a")])
    with pytest.raises(FiberError):
        PlumbingTree(["a", "b"], [("a", "b", 2)])
    for edge in (("a",), ("a", "b", 1, 1)):
        with pytest.raises(FiberError, match="edge must be"):
            PlumbingTree(["a", "b"], [edge])
    # a disconnected forest is fine
    F = plumbing_lattice(PlumbingTree(["a", "b"]), 2)
    assert F.lattice.gram == ((-2, 0), (0, -2))


@pytest.mark.parametrize("build", (
    lambda: PlumbingTree([["a"], "b"]),
    lambda: PlumbingTree(["a", "b"], [(["a"], "b")]),
    lambda: FiberModel(plumbing_lattice(PlumbingTree(["a"]), 2).lattice,
                       [["a"]]),
    lambda: attach_stabilizing_handle(
        plumbing_lattice(PlumbingTree.path(2), 2), (1, 0), ["x"]),
    lambda: FiberModel(plumbing_lattice(PlumbingTree(["a"]), 2).lattice,
                       ["a"], [(["a"], (1,))]),
), ids=("vertex", "edge-end", "basis-label", "handle-label",
        "stabilizing-label"))
def test_an_unhashable_label_is_a_fiber_error(build):
    with pytest.raises(FiberError):
        build()


@pytest.mark.parametrize("build", (
    lambda: attach_stabilizing_handle(
        plumbing_lattice(PlumbingTree.path(2), 2), [1.5, 0], "s"),
    lambda: attach_stabilizing_handle(
        plumbing_lattice(PlumbingTree.path(1), 2), ["x"], "s"),
    lambda: ak_matching_fiber(3, 2.5),
    lambda: plumbing_lattice(PlumbingTree.path(2), "2"),
    lambda: plumbing_lattice(PlumbingTree.path(2), 2.0),
), ids=("fractional-pairing", "text-pairing", "fractional-ak-n", "text-n",
        "float-n"))
def test_a_non_integer_is_a_fiber_error(build):
    # int() would truncate 1.5 to 1 and read "2" as 2
    with pytest.raises(FiberError, match="must be integral"):
        build()


A1 = plumbing_lattice(PlumbingTree.path(1), 2).lattice
A2 = plumbing_lattice(PlumbingTree.path(2), 2).lattice


@pytest.mark.parametrize("build,message", (
    (lambda: FiberModel(A2, ["a"]), "one label per basis vector"),
    (lambda: FiberModel(A2, ["a", "a"]), "duplicate basis labels"),
    (lambda: FiberModel(A2, ["a", "b"], {"c": (1, 0)}),
     "stabilizing label is not in the basis"),
    (lambda: FiberModel(A1, ["a"], arc_system=ArcSystem(3)),
     "arc system larger than the lattice"),
    # a tuple in place of a label names no basis sphere
    (lambda: FiberModel(A1, ["a"], [("a",)]),
     "stabilizing label is not in the basis"),
    (lambda: FiberModel(A1, ["a"], [("a", 1, 2)]),
     "stabilizing label is not in the basis"),
), ids=("label-count", "duplicate-labels", "stabilizing-label-outside",
        "arcs-past-rank", "handle-one-tuple", "handle-triple"))
def test_a_malformed_fiber_is_a_fiber_error(build, message):
    with pytest.raises(FiberError, match=message):
        build()


def test_a_float_pairing_is_refused_whatever_the_cache_holds():
    F = plumbing_lattice(PlumbingTree.path(2), 2)
    with pytest.raises(FiberError, match="must be integral"):
        attach_stabilizing_handle(F, (1.0, 0), "s")
    child, _ = attach_stabilizing_handle(F, (1, 0), "s")
    # (1.0, 0) == (1, 0) would find the cached child
    with pytest.raises(FiberError, match="must be integral"):
        attach_stabilizing_handle(F, (1.0, 0), "s")
    assert F._children[((1, 0), "s")] is child


def test_edge_signs():
    tree = PlumbingTree(["u", "v"], [("u", "v", -1)])
    F = plumbing_lattice(tree, 2)
    assert F.lattice.gram == ((-2, -1), (-1, -2))
    # |det| and SNF divisors are sign-robust
    plus = plumbing_lattice(PlumbingTree(["u", "v"], [("u", "v", 1)]), 2)
    d_minus, _ = smith_normal_form(F.lattice.gram)
    d_plus, _ = smith_normal_form(plus.lattice.gram)
    assert d_minus == d_plus


def test_ak_determinant_property():
    for k in range(1, 7):
        F = plumbing_lattice(PlumbingTree.path(k), 2)
        expected = (k + 1) if k % 2 == 0 else -(k + 1)
        assert det([list(r) for r in F.lattice.gram]) == expected


def test_attach_frozen_a1():
    F = plumbing_lattice(PlumbingTree(["e1"]), 2)
    F2, s = attach_stabilizing_handle(F, [1], "s1")
    assert F2.lattice.gram == ((-2, 1), (1, -2))
    assert s.coords == (0, 1)
    assert F2.basis_labels == ("e1", "s1")
    assert F2.stabilizing_spheres == {"s1"}
    # original untouched
    assert F.lattice.rank == 1


def test_attach_orthogonal():
    F = plumbing_lattice(PlumbingTree.path(2), 2)
    F2, _ = attach_stabilizing_handle(F, [0, 0], "s")
    assert F2.lattice.gram[2] == (0, 0, -2)
    F3 = plumbing_lattice(PlumbingTree.path(2), 3)
    F4, _ = attach_stabilizing_handle(F3, [0, 0], "s")
    assert F4.lattice.gram[2] == (0, 0, 0)


def test_attach_odd_orientation():
    # <s, b_j> = pairings_j, so the new row carries the given signs
    F = plumbing_lattice(PlumbingTree(["e1"]), 3)
    F2, s = attach_stabilizing_handle(F, [1], "s")
    assert F2.lattice.gram == ((0, -1), (1, 0))


def test_attach_wrong_length():
    F = plumbing_lattice(PlumbingTree.path(2), 2)
    with pytest.raises(FiberError):
        attach_stabilizing_handle(F, [1], "s")
    with pytest.raises(FiberError):
        attach_stabilizing_handle(F, [1, 0], "v1")  # label collision


def test_attach_shares_children_weakly():
    F = plumbing_lattice(PlumbingTree.path(2), 2)
    child, s = attach_stabilizing_handle(F, [1, 0], "s1")
    again, s_again = attach_stabilizing_handle(F, (1, 0), "s1")
    assert again is child and s_again == s
    other, _ = attach_stabilizing_handle(F, [0, 1], "s1")
    assert other is not child and other.lattice != child.lattice
    renamed, _ = attach_stabilizing_handle(F, [1, 0], "s2")
    assert renamed is not child and renamed.basis_labels[-1] == "s2"
    # the parent holds its children weakly: a child nothing else holds
    # is freed, so search does not keep every stabilized fiber alive
    ref = weakref.ref(child)
    del child, again, other, renamed
    gc.collect()
    assert ref() is None
    fresh, s_fresh = attach_stabilizing_handle(F, [1, 0], "s1")
    assert fresh.lattice.gram == ((-2, 1, 1), (1, -2, 0), (1, 0, -2))
    assert s_fresh == s


def test_attach_block_determinants():
    F = plumbing_lattice(PlumbingTree.path(2), 2)
    F2, _ = attach_stabilizing_handle(F, [1, 0], "s1")
    F3, _ = attach_stabilizing_handle(F2, [0, 1, 0], "s2")
    assert F3.lattice.rank == 4
    d, _ = smith_normal_form(F3.lattice.gram)
    prod = 1
    for x in d:
        prod *= x
    assert prod == abs(det([list(r) for r in F3.lattice.gram]))


def test_attach_delete_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(1, 4)
        n = rng.choice([2, 3, 4])
        F = plumbing_lattice(PlumbingTree.path(k), n)
        pairings = [rng.randint(-2, 2) for _ in range(k)]
        F2, _ = attach_stabilizing_handle(F, pairings, "s")
        trimmed = tuple(row[:-1] for row in F2.lattice.gram[:-1])
        assert trimmed == F.lattice.gram


def test_permutation_conjugacy():
    rng = random.Random(11)
    base = PlumbingTree.path(4)
    F = plumbing_lattice(base, 2)
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        vertices = [base.vertices[i] for i in perm]
        tree = PlumbingTree(vertices, base.edges)
        G = plumbing_lattice(tree, 2).lattice.gram
        for a in range(4):
            for b in range(4):
                assert G[a][b] == F.lattice.gram[perm[a]][perm[b]]


def test_ak_matching_fiber():
    F = ak_matching_fiber(3, 2)
    assert F.lattice.gram == ((-2, 1), (1, -2))
    assert isinstance(F.arc_system, ArcSystem)
    assert F.arc_system.m == 3
    assert F.arc_system.lattice == F.lattice
    assert set(F.arc_system.catalogue) == {"a1", "a2"}
    assert F.basis_labels == ("e1", "e2")

    F5 = ak_matching_fiber(5, 2)
    assert F5.lattice.rank == 4
    assert F5.arc_system.m == 5

    F2 = ak_matching_fiber(2, 3)
    assert F2.lattice.gram == ((0,),)
    with pytest.raises(FiberError):
        ak_matching_fiber(1, 2)


def test_ak_matching_fiber_agrees_with_path_plumbing():
    # the fiber takes its lattice from the arc system alone; it must be
    # the A_{m-1} path plumbing with labels e1..e{m-1}
    for m in range(2, 9):
        for n in range(1, 5):
            F = ak_matching_fiber(m, n)
            P = plumbing_lattice(PlumbingTree.path(m - 1, prefix="e"), n)
            assert F.lattice == P.lattice
            assert F.lattice is F.arc_system.lattice
            assert F.basis_labels == P.basis_labels
            # the key of the fiber as built through the plumbing
            twin = FiberModel(P.lattice, P.basis_labels,
                              arc_system=F.arc_system)
            assert F._key == twin._key
    for m, n, text in ((1, 2, "at least 2 points"),
                       (3, 0, "fiber dimension must be positive")):
        with pytest.raises(FiberError, match=text):
            ak_matching_fiber(m, n)
