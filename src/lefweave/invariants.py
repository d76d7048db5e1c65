"""Smooth invariants of the total space of a Lefschetz datum.

The total space is the fiber times a disk with one extra (n+1)-handle
per vanishing cycle.  Its cellular chain complex therefore has one
0-cell, one n-cell per fiber sphere, and one (n+1)-cell per cycle whose
boundary is the cycle's homology class.  Everything below follows from
the Smith normal form of that single boundary matrix:

    H_0 = Z,   H_n = coker d,   H_{n+1} = ker d,   else 0
    chi = chi(fiber) + (-1)^(n+1) k

The middle intersection form lives on ker d.  With K the matrix whose
columns are a basis of ker d, it is

    Q = K^T . Q2 . K / 2

where Q2 is the doubled k x k thimble matrix.  Every diagonal entry is
the self-pairing of an (n+1)-sphere.  Above the diagonal
Q2[i][j] = s <klass V_i, klass V_j>, built once per call as rows; below
it Q2[j][i] = pairing_sign(n + 1) Q2[i][j] (the thimbles live in degree
n + 1), applied where the product reads it, so no lower triangle is
stored.  The diagonal is the matching-sphere normalization: a cycle
pair (V, V) presents D*S^(n+1), whose generator t_1 - t_2 must
self-pair as the sphere S^(n+1) does.

The thimble sign s is the diagonal's sign, +1 where the diagonal is 0.
Odd-n twists are x + <x,S> S at every odd n, while the diagonal is -2
at n = 1 mod 4 and +2 at n = 3 mod 4, so s is -1 at n = 1 mod 4 and +1
otherwise; with s the off-diagonal entries follow the diagonal's sign,
so that Hurwitz moves, which act on the thimbles by elementary
unimodular matrices, preserve Q at every n (cf. Seidel, Fukaya
categories and Picard-Lefschetz theory, EMS 2008).

All arithmetic is in integers: the signature of Q comes from
fraction-free symmetric elimination (Bareiss, Math. Comp. 22 (1968)).
"""

from collections import namedtuple

from . import LefweaveError
from .lattice import pairing, pairing_sign, smith_normal_form, \
    sphere_self_pairing

TotalSpaceInvariants = namedtuple(
    "TotalSpaceInvariants",
    ("n", "chi", "homology", "middle_form", "middle_symmetry",
     "form_invariants"),
)


class InvariantError(LefweaveError):
    """Raised on unsupported inputs or internal consistency failures."""


def _boundary_matrix(D):
    rank = D.fiber.lattice.rank
    return [
        [cyc.klass.coords[r] for cyc in D.cycles] for r in range(rank)
    ]


def _divisors_and_kernel(D):
    """Nonzero SNF divisors of d plus an integer basis of ker d."""
    rank = D.fiber.lattice.rank
    k = len(D.cycles)
    if rank == 0:
        basis = [tuple(1 if i == j else 0 for i in range(k))
                 for j in range(k)]
        return [], basis
    d, V = smith_normal_form(_boundary_matrix(D))
    divisors = [x for x in d if x]
    # M.V is zero past the rank, so those columns of V span ker d
    kernel = [tuple(row[j] for row in V)
              for j in range(len(divisors), k)]
    return divisors, kernel


def _euler_formula(D):
    rank = D.fiber.lattice.rank
    n = D.n
    fiber_chi = 1 + (-1) ** n * rank
    return fiber_chi + (-1) ** (n + 1) * len(D.cycles)


def total_space_homology(D):
    """Homology and chi of the total space; form fields left empty."""
    return _homology(D, _divisors_and_kernel(D)[0])


def _homology(D, divisors):
    """total_space_homology, given the nonzero SNF divisors of D's d."""
    n = D.n
    rank = D.fiber.lattice.rank
    k = len(D.cycles)
    r = len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    homology = []
    for deg in range(n + 2):
        free, tor = 0, ()
        if deg == 0:
            free = 1
        if deg == n:
            free += rank - r
            tor = torsion
        if deg == n + 1:
            free += k - r
        homology.append((deg, free, tor))
    chi = sum((-1) ** deg * free for deg, free, _ in homology)
    if chi != _euler_formula(D):
        raise InvariantError(
            "homology disagrees with the Euler formula",
            chi=chi, formula=_euler_formula(D))
    return TotalSpaceInvariants(n, chi, tuple(homology), None, None, None)


def middle_intersection_form(D):
    """The intersection matrix K^T . Q2 . K / 2 on a basis K of ker d.

    Q2 is the doubled thimble matrix of the module docstring, with its
    thimble sign.  Hurwitz moves act on thimbles by elementary
    unimodular matrices, which preserves this Q and no other scaling.
    Restricted to ker d the matrix is integral: for odd n the two
    triangular halves agree on kernel vectors, for even n the fiber
    lattice is even.
    """
    return _middle_form(D, _divisors_and_kernel(D)[1])


def _middle_form(D, kernel):
    """middle_intersection_form, given a basis of D's ker d."""
    n = D.n
    lattice = D.fiber.lattice
    klasses = [cyc.klass for cyc in D.cycles]
    k = len(klasses)
    diag = sphere_self_pairing(n + 1)
    # the thimble sign s of the module docstring
    sign = -1 if diag < 0 else 1
    flip = pairing_sign(n + 1)
    # the upper triangle of Q2; entries on and below the diagonal unused
    q2 = [[sign * pairing(lattice, klasses[i], klasses[j]) if j > i else 0
           for j in range(k)] for i in range(k)]

    form = []
    for u in kernel:
        row = []
        for v in kernel:
            # u^T . Q2 . v over the pairs i <= j, with Q2[j][i] from Q2[i][j]
            doubled = 0
            for i in range(k):
                qi, ui, vi = q2[i], u[i], v[i]
                doubled += ui * diag * vi
                for j in range(i + 1, k):
                    doubled += qi[j] * (ui * v[j] + flip * u[j] * vi)
            half, rem = divmod(doubled, 2)
            if rem:
                raise InvariantError(
                    "kernel pairing is not integral", doubled=doubled)
            row.append(half)
        form.append(tuple(row))
    return tuple(form)


def form_invariants(matrix, symmetric):
    """(rank, |det| of the nondegenerate part, signature or None)."""
    divisors = [x for x in smith_normal_form(matrix)[0] if x]
    rank = len(divisors)
    abs_det = 1
    for d in divisors:
        abs_det *= d
    if not symmetric:
        return (rank, abs_det, None)
    return (rank, abs_det, _signature(matrix))


def _signature(matrix):
    """Signature of a symmetric integer matrix, by fraction-free elimination.

    Each trailing entry stays an integer minor of a matrix congruent to the
    input, so every division is exact; a pivot over the last nonzero pivot
    is an entry of a congruent diagonal form.
    """
    size = len(matrix)
    A = [list(row) for row in matrix]
    prev = 1
    signature = 0
    for t in range(size):
        if A[t][t] == 0:
            fix = next(
                (j for j in range(t + 1, size) if A[t][j] != 0), None)
            if fix is None:
                continue
            # make the diagonal entry nonzero; one of the two signs works,
            # since 2a + d and -2a + d cannot both vanish when a != 0
            sgn = 1 if 2 * A[t][fix] + A[fix][fix] != 0 else -1
            for j in range(t, size):
                A[t][j] += sgn * A[fix][j]
            for i in range(t, size):
                A[i][t] += sgn * A[i][fix]
        pivot = A[t][t]
        signature += 1 if (pivot > 0) == (prev > 0) else -1
        for i in range(t + 1, size):
            Ai, ait = A[i], A[i][t]
            for j in range(t + 1, size):
                Ai[j] = (pivot * Ai[j] - ait * A[t][j]) // prev
        prev = pivot
    return signature


def total_space_invariants(D):
    """The full bundle: homology, chi, middle form, form invariants."""
    divisors, kernel = _divisors_and_kernel(D)
    base = _homology(D, divisors)
    form = _middle_form(D, kernel)
    symmetric = pairing_sign(D.n + 1) == 1
    return base._replace(
        middle_form=form,
        middle_symmetry="symmetric" if symmetric else "antisymmetric",
        form_invariants=form_invariants(form, symmetric),
    )
