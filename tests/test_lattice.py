"""Tests for the exact lattice layer: pairings, twists, word evaluation, SNF.

Expected values were frozen from hand computation (2x2 determinants, direct
application of the twist formula) before the implementation was written; the
SNF tests additionally compare invariant factors against sympy as an
independent oracle.
"""

import ast
import itertools
import math
import pathlib
import random

import pytest

import lefweave
from lefweave.lattice import (
    IntLattice,
    LatticeError,
    SphereClass,
    TwistWord,
    bordered,
    evaluate_word,
    orthogonal_sum,
    pairing,
    plumbed,
    smith_normal_form,
    twist_power,
)


def a2_lattice(n):
    if n % 2 == 0:
        return IntLattice([[-2, 1], [1, -2]], n=n)
    return IntLattice([[0, 1], [-1, 0]], n=n)


def test_pairing_a2_even():
    L = a2_lattice(2)
    e1, e2 = L.basis_sphere(1), L.basis_sphere(2)
    assert pairing(L, e1, e2) == 1
    assert pairing(L, e1, e1) == -2
    # det of the A2 gram by direct 2x2 expansion
    g = L.gram
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 3


def test_pairing_zero_vector():
    L = a2_lattice(2)
    zero = SphereClass((0, 0))
    assert pairing(L, zero, L.basis_sphere(2)) == 0


def test_pairing_skew_diagonal_zero():
    L = a2_lattice(3)
    e1 = L.basis_sphere(1)
    assert pairing(L, e1, e1) == 0
    assert pairing(L, e1, L.basis_sphere(2)) == 1
    assert pairing(L, L.basis_sphere(2), e1) == -1


def test_pairing_dimension_mismatch():
    L = a2_lattice(2)
    with pytest.raises(LatticeError):
        pairing(L, SphereClass((1, 0, 0)), L.basis_sphere(1))


def test_gram_parity_validation():
    with pytest.raises(LatticeError):
        IntLattice([[-2, 1], [0, -2]], n=2)  # not symmetric
    with pytest.raises(LatticeError):
        IntLattice([[1, 1], [-1, 0]], n=3)  # nonzero diagonal for odd n


@pytest.mark.parametrize("gram,n,where", (
    ([[-2, 1], [0, -2]], 2, (0, 1)),
    ([[0, 1, 0], [-1, 0, 2], [0, 2, 0]], 1, (1, 2)),
    ([[0, 1], [1, 0]], 3, (0, 1)),
), ids=("even-n-asymmetric", "odd-n-first-bad-row", "odd-n-symmetric"))
def test_the_first_sign_rule_violation_is_named(gram, n, where):
    # the first row that breaks the rule, then the first column in it
    with pytest.raises(LatticeError, match="sign rule") as info:
        IntLattice(gram, n)
    assert (info.value.context["i"], info.value.context["j"]) == where


def test_dehn_twist_even_frozen():
    L = a2_lattice(2)
    e1, e2 = L.basis_sphere(1), L.basis_sphere(2)
    assert twist_power(L, e2, e1, 1).coords == (1, 1)
    # tau_S(S) = (-1)^{n+1} S for n even
    assert twist_power(L, e2, e2, 1).coords == (0, -1)


def test_dehn_twist_rejects_bad_center_even():
    L = a2_lattice(2)
    bad = SphereClass((2, 0))  # self-pairing -8, not -2
    with pytest.raises(LatticeError):
        twist_power(L, bad, L.basis_sphere(1), 1)


def test_dehn_twist_odd_frozen():
    L = a2_lattice(3)
    e1, e2 = L.basis_sphere(1), L.basis_sphere(2)
    once = twist_power(L, e2, e1, 1)
    twice = twist_power(L, e2, once, 1)
    assert once.coords == (1, 1)
    assert twice.coords == (1, 2)  # tau^2_{e2}(e1) = e1 + 2 e2
    # tau_S(S) = S for n odd
    assert twist_power(L, e2, e2, 1).coords == (0, 1)


def test_evaluate_word_identity_and_reduction():
    L = a2_lattice(2)
    e1, e2 = L.basis_sphere(1), L.basis_sphere(2)
    assert evaluate_word(L, TwistWord((), e1)).coords == (1, 0)
    # squared twist is trivial on homology in even n
    sq = TwistWord(((e2, 2),), e1)
    assert evaluate_word(L, sq).coords == (1, 0)
    # free reduction: tau^{-1}_S tau^2_S = tau_S
    w = TwistWord(((e2, -1), (e2, 2)), e1)
    assert w.letters == ((e2, 1),)
    assert evaluate_word(L, w).coords == twist_power(L, e2, e1, 1).coords


def test_evaluate_word_odd_frozen():
    L = a2_lattice(3)
    e1, e2 = L.basis_sphere(1), L.basis_sphere(2)
    w = TwistWord(((e2, 2),), e1)
    assert evaluate_word(L, w).coords == (1, 2)


def test_twist_word_drops_zero_exponents():
    L = a2_lattice(2)
    e1, e2 = L.basis_sphere(1), L.basis_sphere(2)
    w = TwistWord(((e2, 1), (e2, -1), (e1, 0)), e1)
    assert w.letters == ()


@pytest.mark.parametrize("build", (
    lambda: IntLattice([[-2.5]], 2),
    lambda: IntLattice([[-2]], 2.5),
    lambda: SphereClass((1.5, 0)),
    lambda: TwistWord([(SphereClass((0, 1)), 1.5)], SphereClass((1, 0))),
    lambda: smith_normal_form([[1.5]]),
    lambda: smith_normal_form([[2.0, 0], [0, 3]]),
), ids=("fractional-gram", "fractional-n", "fractional-coords",
        "fractional-exponent", "fractional-snf-entry", "float-snf-entry"))
def test_a_non_integer_is_a_lattice_error(build):
    # int() would truncate each to the integer below it
    with pytest.raises(LatticeError, match="must be integral"):
        build()


@pytest.mark.parametrize("build,message", (
    (lambda: IntLattice([[-2, 1]], 2), "must be square"),
    (lambda: IntLattice([[-2]], 0), "n must be a positive integer"),
    (lambda: a2_lattice(2).basis_sphere(3), "basis index out of range"),
    (lambda: a2_lattice(2).basis_sphere(0), "basis index out of range"),
    (lambda: smith_normal_form([[1, 2], [3]]), "ragged matrix"),
), ids=("non-square-gram", "n-below-1", "basis-index-past-rank",
        "basis-index-0", "ragged-snf"))
def test_a_malformed_lattice_input_is_a_lattice_error(build, message):
    with pytest.raises(LatticeError, match=message):
        build()


def test_word_inverse_composes_to_identity():
    rng = random.Random(11)
    L = a2_lattice(2)
    Lo = a2_lattice(3)
    for lattice in (L, Lo):
        for _ in range(50):
            x = SphereClass((rng.randint(-4, 4), rng.randint(-4, 4)))
            s = lattice.basis_sphere(rng.randint(1, 2))
            e = rng.choice([-2, -1, 1, 2])
            w = TwistWord(((s, -e), (s, e)), x)
            assert evaluate_word(lattice, w).coords == x.coords


def test_smith_normal_form_frozen():
    d, V = smith_normal_form([[2, 0], [0, 3]])
    assert d == (1, 6)

    d, V = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert d == (0, 0)
    assert V == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    d, V = smith_normal_form([[1, 0], [0, 1]])
    assert d == (1, 1)


def test_smith_normal_form_shapes_and_empty():
    d, V = smith_normal_form([[1, 2, 3]])
    assert d == (1,)
    assert len(V) == 3 and all(len(row) == 3 for row in V)
    assert smith_normal_form([]) == ((), ())
    assert smith_normal_form([[], []]) == ((), ())


def _det(m):
    # exact integer determinant by expansion; test-sized matrices only
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_smith_normal_form_properties_random():
    # no U is returned; check that a unimodular U with U.M.V = diag(d)
    # exists: M.V is zero past the rank r, column j < r is d_j times a
    # column c_j, and the r x r minors of C = (c_0 .. c_{r-1}) are coprime,
    # so C extends to a unimodular matrix W with M.V = W.diag(d)
    rng = random.Random(7)
    for _ in range(60):
        p = rng.randint(1, 5)
        q = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(q)] for _ in range(p)]
        d, V = smith_normal_form(M)
        assert len(d) == min(p, q)
        assert abs(_det([list(r) for r in V])) == 1
        MV = _matmul(M, [list(r) for r in V])
        r = sum(1 for x in d if x)
        assert all(x > 0 for x in d[:r]) and not any(d[r:])
        for a, b in zip(d[:r], d[1:r]):
            assert b % a == 0
        assert all(row[j] == 0 for row in MV for j in range(r, q))
        assert all(row[j] % d[j] == 0 for row in MV for j in range(r))
        C = [[row[j] // d[j] for j in range(r)] for row in MV]
        minors = [_det([C[i] for i in rows])
                  for rows in itertools.combinations(range(p), r)]
        assert math.gcd(*minors) == 1


def test_smith_normal_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(19)
    for _ in range(25):
        p = rng.randint(1, 4)
        q = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(q)] for _ in range(p)]
        d, _ = smith_normal_form(M)
        ours = sorted(x for x in d if x)
        S = sympy_snf(sympy.Matrix(M))
        theirs = sorted(
            abs(S[i, i]) for i in range(min(S.rows, S.cols)) if S[i, i] != 0
        )
        assert ours == theirs


def _random_even_lattice(rng, rank):
    # symmetric gram with diagonal -2 so basis vectors are valid twist centers
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = -2
        for j in range(i + 1, rank):
            v = rng.randint(-2, 2)
            g[i][j] = v
            g[j][i] = v
    return IntLattice(g, n=2)


def _random_odd_lattice(rng, rank):
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            v = rng.randint(-2, 2)
            g[i][j] = v
            g[j][i] = -v
    return IntLattice(g, n=3)


def test_twist_isometry_property():
    rng = random.Random(23)
    for _ in range(80):
        rank = rng.randint(1, 6)
        L = rng.choice([_random_even_lattice, _random_odd_lattice])(rng, rank)
        S = L.basis_sphere(rng.randint(1, rank))
        x = SphereClass(tuple(rng.randint(-5, 5) for _ in range(rank)))
        y = SphereClass(tuple(rng.randint(-5, 5) for _ in range(rank)))
        tx, ty = twist_power(L, S, x, 1), twist_power(L, S, y, 1)
        assert pairing(L, tx, ty) == pairing(L, x, y)


def test_involution_even_and_transvection_odd():
    rng = random.Random(29)
    for _ in range(80):
        rank = rng.randint(1, 6)
        Le = _random_even_lattice(rng, rank)
        Lo = _random_odd_lattice(rng, rank)
        S_e = Le.basis_sphere(rng.randint(1, rank))
        S_o = Lo.basis_sphere(rng.randint(1, rank))
        x_e = SphereClass(tuple(rng.randint(-5, 5) for _ in range(rank)))
        x_o = SphereClass(tuple(rng.randint(-5, 5) for _ in range(rank)))
        assert twist_power(Le, S_e, twist_power(Le, S_e, x_e, 1), 1).coords == x_e.coords
        twice = twist_power(Lo, S_o, twist_power(Lo, S_o, x_o, 1), 1)
        m = pairing(Lo, x_o, S_o)
        expected = tuple(
            x_o.coords[i] + 2 * m * S_o.coords[i] for i in range(rank)
        )
        assert twice.coords == expected


# --- growth: plumbed, bordered, orthogonal_sum, padded -------------------


def _random_word(rng, L):
    """A word of basis-sphere twists of L on a random class."""
    letters = [(L.basis_sphere(rng.randint(1, L.rank)), rng.randint(-2, 2))
               for _ in range(rng.randint(0, 4))]
    base = SphereClass(tuple(rng.randint(-3, 3) for _ in range(L.rank)))
    return TwistWord(letters, base)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_grown_lattices_pass_the_validating_constructor(n):
    rng = random.Random(n)
    chain = [plumbed(3, [(0, 1, 1), (1, 2, -1)], n)]
    for _ in range(3):
        L = chain[-1]
        chain.append(bordered(
            L, tuple(rng.randint(-2, 2) for _ in range(L.rank))))
    # the constructor's own check passed; rebuilding gives the same lattice
    for L in chain + [orthogonal_sum(chain[1], chain[3])]:
        assert IntLattice(L.gram, L.n) == L
    assert [L.rank for L in chain] == [3, 4, 5, 6]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_padded_words_evaluate_to_padded_classes(n):
    rng = random.Random(10 + n)
    L = plumbed(3, [(0, 1, 1), (1, 2, 1)], n)
    grown = bordered(L, tuple(rng.randint(-2, 2) for _ in range(3)))
    other = plumbed(2, [(0, 1, -1)], n)
    total = orthogonal_sum(L, other)
    for _ in range(40):
        w = _random_word(rng, L)
        x = evaluate_word(L, w)
        assert evaluate_word(grown, w.padded(0, 1)) == x.padded(0, 1)
        assert evaluate_word(total, w.padded(0, 2)) == x.padded(0, 2)
        v = _random_word(rng, other)
        assert evaluate_word(total, v.padded(3, 0)) == \
            evaluate_word(other, v).padded(3, 0)


# --- one owner ------------------------------------------------------------

PACKAGE = pathlib.Path(lefweave.__file__).resolve().parent


def test_only_lattice_builds_lattices():
    """Outside lattice.py no module calls IntLattice(...) or a trusted
    ``_of`` constructor, and outside presentation.py none calls
    ``VanishingCycle._derived``: lattice.py alone decides where a grown
    lattice puts its basis vectors, and presentation.py alone builds a
    cycle without evaluating its word."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "IntLattice" and path.name != "lattice.py":
                    sites.append((path.name, node.lineno, name))
            elif isinstance(node, ast.Attribute):
                owner = {"_of": "lattice.py",
                         "_derived": "presentation.py"}.get(node.attr)
                if owner not in (None, path.name):
                    sites.append((path.name, node.lineno, node.attr))
    assert sites == []
