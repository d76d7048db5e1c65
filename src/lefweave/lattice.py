"""Exact integer lattice algebra: pairings, twist automorphisms, word evaluation, SNF.

Every lattice is built or grown here: plumbed, bordered by a handle,
or summed orthogonally, with classes and words padded to match.

Conventions, fixed once here and relied on everywhere else:

- ``n`` is half the fiber dimension.  The pairing sign rule: on middle
  homology in degree n, <y,x> = pairing_sign(n) <x,y>, which is +1 for
  n even (symmetric) and -1 for n odd (antisymmetric, zero diagonal).
  Every Gram matrix, bordered handle row and thimble matrix reads it.
- A class usable as a twist center must have self-pairing
  (-1)^{n(n+1)/2} * 2 when n is even (so -2 at n=2, +2 at n=4); for n odd the
  self-pairing is automatically 0.
- The twist acts by  tau_S(x) = x + eps * <x,S> * S  with eps = -2/<S,S> for
  n even and eps = +1 for n odd (the odd-n sign is a pure mirror convention).
  Consequences used below: tau_S(S) = (-1)^{n+1} S; for n even tau_S is an
  involution on the lattice, so exponents only matter mod 2; for n odd
  tau_S^m(x) = x + m * <x,S> * S, so the inverse is x - <x,S> S.

- smith_normal_form(M) returns the pair (d, V): the invariant factors
  d_1 | d_2 | ... and the column transform.  The matching row transform U
  exists, but every caller reads only d and V, so it is not built.

All arithmetic is plain Python integers; values are immutable tuples.
"""

import operator

from . import Immutable, LefweaveError, exact_int, exact_ints


class LatticeError(LefweaveError):
    """Structured error for invalid lattice inputs."""


def pairing_sign(n):
    """The s with <y,x> = s <x,y> in degree n: +1 for n even, -1 for n odd."""
    return 1 if n % 2 == 0 else -1


def sphere_self_pairing(n):
    """Self-pairing of a sphere, hence of every twist center (0 for odd n)."""
    if n % 2 == 1:
        return 0
    return 2 if (n * (n + 1) // 2) % 2 == 0 else -2


class IntLattice(Immutable):
    """A finitely generated free abelian group with an integer Gram form.

    Every lattice, grown or not, passes this constructor's sign-rule
    check, whose LatticeError names the first row i, then the first
    column j in it, with gram[i][j] != pairing_sign(n) * gram[j][i].
    ``_centers`` holds the coordinates of every twist center this
    lattice has accepted, so each is checked once (see twist_power).
    """

    __slots__ = ("gram", "n", "rank", "_centers")

    def __init__(self, gram, n):
        gram = tuple(exact_ints(row, LatticeError, "gram entries")
                     for row in gram)
        n = exact_int(n, LatticeError, "n")
        rank = len(gram)
        if any(len(row) != rank for row in gram):
            raise LatticeError("gram matrix must be square", rank=rank)
        if n < 1:
            raise LatticeError("n must be a positive integer", n=n)
        flip = pairing_sign(n)
        for i, column in enumerate(zip(*gram)):
            if flip < 0:
                column = tuple(map(operator.neg, column))
            if gram[i] != column:
                j = next(j for j in range(rank) if gram[i][j] != column[j])
                raise LatticeError(
                    "gram breaks the sign rule <y,x> = %+d <x,y> for n=%d"
                    % (flip, n), i=i, j=j)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_centers", set())

    def basis_sphere(self, i):
        """The i-th basis class, 1-based to match the e1, e2, ... notation."""
        if not 1 <= i <= self.rank:
            raise LatticeError("basis index out of range", i=i, rank=self.rank)
        coords = tuple(1 if j == i - 1 else 0 for j in range(self.rank))
        return SphereClass(coords)

    def __eq__(self, other):
        return (
            isinstance(other, IntLattice)
            and self.gram == other.gram
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.gram, self.n))

    def __repr__(self):
        return "IntLattice(rank=%d, n=%d)" % (self.rank, self.n)


def plumbed(rank, edges, n):
    """The lattice of ``rank`` spheres plumbed along (i, j, sign) edges.

    Indices are 0-based.  Each edge is one transverse point, oriented by
    ascending index; the lower triangle follows by the sign rule.
    """
    diag = sphere_self_pairing(n)
    flip = pairing_sign(n)
    gram = [[diag if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, sign in edges:
        lo, hi = min(i, j), max(i, j)
        gram[lo][hi] = sign
        gram[hi][lo] = flip * sign
    return IntLattice(gram, n)


def bordered(L, pairings):
    """L grown by one sphere s, last, with <s, b_j> = pairings[j].

    ``pairings`` is a tuple of ints, one per basis vector of L; s has
    the sphere self-pairing.
    """
    n = L.n
    flip = pairing_sign(n)
    gram = tuple(row + (flip * p,) for row, p in zip(L.gram, pairings)) \
        + (pairings + (sphere_self_pairing(n),),)
    return IntLattice(gram, n)


def orthogonal_sum(L1, L2):
    """L1's basis, then L2's, no pairing between them."""
    r1, r2 = L1.rank, L2.rank
    gram = tuple(row + (0,) * r2 for row in L1.gram) \
        + tuple((0,) * r1 + row for row in L2.gram)
    return IntLattice(gram, L1.n)


class SphereClass(Immutable):
    """An integer homology class; equality and hashing use coordinates only."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords",
                           exact_ints(coords, LatticeError, "coordinates"))

    @classmethod
    def _of(cls, coords):
        """Build from a tuple of ints the engine computed: no coercion."""
        self = object.__new__(cls)
        object.__setattr__(self, "coords", coords)
        return self

    def __eq__(self, other):
        return isinstance(other, SphereClass) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def padded(self, before, after):
        """The class with ``before`` zeros in front and ``after`` behind."""
        return SphereClass._of((0,) * before + self.coords + (0,) * after)

    def __repr__(self):
        return "SphereClass(%r)" % (self.coords,)


class TwistWord(Immutable):
    """A symbolic word of twists applied to a base class.

    ``letters`` is a sequence of (center, exponent) pairs, leftmost letter
    outermost; evaluation applies letters right to left.  Construction
    performs free reduction only: adjacent letters with equal center merge
    their exponents and zero exponents are dropped.  No braid relations are
    applied.
    """

    __slots__ = ("letters", "base")

    def __init__(self, letters, base):
        reduced = []
        for center, exp in letters:
            exp = exact_int(exp, LatticeError, "twist exponents")
            if exp == 0:
                continue
            if reduced and reduced[-1][0].coords == center.coords:
                merged = reduced[-1][1] + exp
                reduced.pop()
                if merged != 0:
                    reduced.append((center, merged))
            else:
                reduced.append((center, exp))
        object.__setattr__(self, "letters", tuple(reduced))
        object.__setattr__(self, "base", base)

    @classmethod
    def _of(cls, letters, base):
        """Build from letters that are already freely reduced."""
        self = object.__new__(cls)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "base", base)
        return self

    def prepend(self, center, exp):
        """New word with one more (outermost) letter, freely reduced.

        The letters are already reduced, so only the first can merge.
        ``exp`` must be a nonzero int: it is not checked.
        """
        letters = self.letters
        if letters and letters[0][0].coords == center.coords:
            merged = letters[0][1] + exp
            if merged == 0:
                return TwistWord._of(letters[1:], self.base)
            return TwistWord._of(((letters[0][0], merged),) + letters[1:],
                                 self.base)
        return TwistWord._of(((center, exp),) + letters, self.base)

    def padded(self, before, after):
        """The word with every center and the base padded alike."""
        return TwistWord._of(
            tuple((c.padded(before, after), e) for c, e in self.letters),
            self.base.padded(before, after))

    def __eq__(self, other):
        return (
            isinstance(other, TwistWord)
            and self.letters == other.letters
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.letters, self.base))

    def __repr__(self):
        parts = ["tw(%r)^%d" % (c.coords, e) for c, e in self.letters]
        return "TwistWord(%s | %r)" % (" ".join(parts) or "1", self.base.coords)


def pairing(L, x, y):
    """Evaluate the Gram form: x^T . gram . y."""
    if len(x.coords) != L.rank or len(y.coords) != L.rank:
        raise LatticeError(
            "class length does not match lattice rank",
            rank=L.rank,
            x=len(x.coords),
            y=len(y.coords),
        )
    total = 0
    for i, xi in enumerate(x.coords):
        if xi == 0:
            continue
        row = L.gram[i]
        total += xi * sum(row[j] * yj for j, yj in enumerate(y.coords) if yj)
    return total


def twist_power(L, S, x, exponent):
    """Apply tau_S^exponent exactly (closed form, valid for any integer).

    For n even the center's self-pairing is checked the first time the
    lattice twists about it; a center that fails raises on every call,
    since only accepted centers are remembered.
    """
    if L.n % 2 == 0:
        required = sphere_self_pairing(L.n)
        if S.coords not in L._centers:
            self_pairing = pairing(L, S, S)
            if self_pairing != required:
                raise LatticeError(
                    "invalid twist center: self-pairing must be %d for n=%d"
                    % (required, L.n),
                    self_pairing=self_pairing,
                )
            L._centers.add(S.coords)
        # involution on the lattice: only exponent parity matters
        if exponent % 2 == 0:
            return SphereClass._of(x.coords)
        m = (-2 // required) * pairing(L, x, S)
    else:
        # transvection: tau^m(x) = x + m <x,S> S
        m = exponent * pairing(L, x, S)
    return SphereClass._of(
        tuple(xi + m * si for xi, si in zip(x.coords, S.coords)))


def evaluate_word(L, w):
    """Evaluate a twist word on its base class, innermost letter first."""
    result = w.base
    for center, exp in reversed(w.letters):
        result = twist_power(L, center, result, exp)
    return result


def smith_normal_form(M):
    """Smith normal form: returns (d, V) with M.V = U^-1.diag(d).

    d = (d_1, d_2, ...) has length min(p, q); its entries are
    nonnegative, zeros last, and form a divisibility chain d_i | d_{i+1}.
    V is the unimodular column transform.  A unimodular row transform U
    with U.M.V = diag(d) exists, but no caller reads it, so it is not
    built.  Pivoting is deterministic: the smallest nonzero absolute
    value in the remaining submatrix wins, ties broken by lowest row
    index, then lowest column index.
    """
    A = [list(exact_ints(row, LatticeError, "matrix entries")) for row in M]
    p = len(A)
    q = len(A[0]) if p else 0
    if any(len(row) != q for row in A):
        raise LatticeError("ragged matrix")
    V = [[1 if i == j else 0 for j in range(q)] for i in range(q)]

    def col_swap(a, b):
        for row in A:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def row_add(dst, src, mult):
        # row_dst += mult * row_src
        Ad, As = A[dst], A[src]
        for j in range(q):
            Ad[j] += mult * As[j]

    def col_add(dst, src, mult):
        for row in A:
            row[dst] += mult * row[src]
        for row in V:
            row[dst] += mult * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, p):
            for j in range(t, q):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    for t in range(min(p, q)):
        while True:
            found = find_pivot(t)
            if found is None:
                break
            _, pi, pj = found
            if pi != t:
                A[t], A[pi] = A[pi], A[t]
            if pj != t:
                col_swap(t, pj)
            pivot = A[t][t]
            dirty = False
            for i in range(p):
                if i != t and A[i][t] != 0:
                    quot = A[i][t] // pivot
                    if quot:
                        row_add(i, t, -quot)
                    if A[i][t] != 0:
                        dirty = True
            for j in range(q):
                if j != t and A[t][j] != 0:
                    quot = A[t][j] // pivot
                    if quot:
                        col_add(j, t, -quot)
                    if A[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # row and column t are clear; enforce divisibility into the rest
            bad = None
            for i in range(t + 1, p):
                for j in range(t + 1, q):
                    if A[i][j] % pivot != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if A[t][t] == 0:
            break

    d = tuple(abs(A[t][t]) for t in range(min(p, q)))
    return d, tuple(tuple(r) for r in V)
