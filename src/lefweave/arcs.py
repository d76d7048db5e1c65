"""Isotopy-exact arcs between marked points of a disk.

The model: m marked points p_1..p_m sit on a horizontal line in the disk.
A matching arc connects two distinct marked points. Arcs are stored as a
base edge plus a word of half-twists applied to it; isotopy is decided by
an exact integer key, never by the twist word itself.

Key. An arc is determined by the boundary of its regular neighbourhood, a
curve around exactly its two endpoints, and the curve by its Dynnikov
coordinates (a_1..a_{m-2}, b_1..b_{m-2}); for m = 2 the key is empty.
`MatchingArc.key` holds them, built from the arc's sigma-letters by a few
integer max/min steps per letter (Dynnikov, Russian Math. Surveys 57
(2002); Thiffeault, arXiv:1410.0849). Equality and hashing use the key.

Classes. `arc_to_class` applies the arc's sigma-letters to the base
edge's class in the A_{m-1} lattice: the half-twist sigma_k acts on the
fiber as the Dehn twist about the sphere e_k of the standard edge k
(Seidel, Fukaya categories and Picard-Lefschetz theory, EMS 2008), and
naturality, tau_{phi(e)} = phi tau_e phi^{-1}, makes this the class the
half-twist history gives.
"""

from . import LefweaveError, exact_int, exact_ints
from .lattice import SphereClass, TwistWord, plumbed, twist_power


class ArcError(LefweaveError):
    """Raised for malformed or mismatched arc-system operations."""


# ---------------------------------------------------------------------------
# free words on x_1..x_m: tuples of (index, +-1), freely reduced


def _free_reduce(letters):
    out = []
    for l in letters:
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def _invert(letters):
    return tuple((idx, -s) for idx, s in reversed(letters))


# ---------------------------------------------------------------------------
# Dynnikov coordinates: the isotopy key


def _dynnikov_key(u, gens):
    """Act on the key u = (a_1..a_{m-2}, b_1..b_{m-2}) by sigma-letters,
    rightmost (innermost) first.

    The end generators use one sign convention and the middle ones its
    mirror; only this mix (or its full mirror) satisfies the braid
    relations, and a mirror fixes the base edges, so it cannot change
    which arcs are equal.
    """
    h = len(u) // 2
    if h == 0:
        return u
    a, b = list(u[:h]), list(u[h:])
    for k, s in reversed(gens):
        if k == 1 or k == h + 1:
            i, clamp = (0, max) if k == 1 else (h - 1, min)
            t = clamp(b[i], 0) + s * a[i]
            a[i], b[i] = s * (clamp(t, 0) - b[i]), t
        else:
            i = k - 2
            x, y, x2, y2 = a[i], b[i], a[i + 1], b[i + 1]
            d = s * (x - x2) + min(y, 0) - max(y2, 0)
            a[i] = x - s * (max(y, 0) + max(max(y2, 0) + d, 0))
            b[i] = y2 + min(d, 0)
            a[i + 1] = x2 - s * (min(y2, 0) + min(min(y, 0) - d, 0))
            b[i + 1] = y - min(d, 0)
    return tuple(a) + tuple(b)


# ---------------------------------------------------------------------------
# the arc objects


class MatchingArc:
    """An unoriented arc between two marked points, up to isotopy.

    `word` is a tuple of (arc, power) half-twist letters, leftmost
    outermost, applied to the standard edge with index `base_index`;
    each arc is of a system with as many points, and each power an int.
    Two arcs with the same system size, base edge and reduced
    sigma-letters are the same mapping class applied to the same edge,
    so they are equal outright; any other pair is compared, and every
    arc is hashed, by `key`, its Dynnikov coordinates, built from its
    sigma-letters on first use.
    """

    def __init__(self, system, base_index, word=()):
        _check_arcs(system)
        base_index = exact_int(base_index, ArcError, "base edge index")
        if not 1 <= base_index <= system.m - 1:
            raise ArcError("base edge index out of range",
                           base_index=base_index, m=system.m)
        self.system = system
        self.base_index = base_index
        try:
            self.word = tuple(_letter(system, *letter) for letter in word)
        except TypeError:  # no sequence of pairs
            raise ArcError("an arc's word must hold (arc, power) letters",
                           word=word) from None
        self._gens = None
        self._key = None

    def _mapping_gens(self):
        if self._gens is None:
            self._gens = tuple(g for arc, power in self.word
                               for g in _letter_gens(arc, power))
        return self._gens

    @property
    def key(self):
        if self._key is None:
            # the standard edge from p_k to p_{k+1}: every a_i is 0,
            # b_{k-1} = -1 and b_k = +1 where those indices exist
            m, k = self.system.m, self.base_index
            b = [0] * m
            b[k - 1], b[k] = -1, 1
            self._key = _dynnikov_key(
                (0,) * (m - 2) + tuple(b[1:m - 1]), self._mapping_gens())
        return self._key

    def __eq__(self, other):
        if not isinstance(other, MatchingArc):
            return NotImplemented
        if self.system.m != other.system.m:
            return False
        # the same sigma-letters are the same mapping class applied to
        # the same edge
        if self is other or (self.base_index == other.base_index
                             and self._mapping_gens()
                             == other._mapping_gens()):
            return True
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "MatchingArc(m=%d, key=%r)" % (self.system.m, self.key)


def _check_arcs(system, *arcs):
    """Raise ArcError unless ``system`` is an arc system and each of
    ``arcs`` an arc of a system of its size."""
    if not isinstance(system, ArcSystem):
        raise ArcError("an arc needs an arc system", system=system)
    for arc in arcs:
        if not isinstance(arc, MatchingArc) or arc.system.m != system.m:
            raise ArcError("arcs belong to a different system", m=system.m)


def _letter(system, arc, power):
    """The half-twist letter (arc, power) with an int power, checked to
    twist about an arc of ``system``'s size."""
    _check_arcs(system, arc)
    return arc, exact_int(power, ArcError, "half-twist power")


def _letter_gens(arc, power):
    """Sigma-letters of one half-twist letter: the arc's mapping class
    conjugating the base edge's twist to the power."""
    inner = arc._mapping_gens()
    core = ((arc.base_index, 1 if power > 0 else -1),) * abs(power)
    return _free_reduce(inner + core + _invert(inner))


class ArcSystem:
    """m marked points on the disk with their standard edges catalogued.

    The associated lattice is the A_{m-1} chain in parity n: standard
    edge k maps to basis sphere e_k.
    """

    def __init__(self, m, n=2):
        m, n = exact_ints((m, n), ArcError, "point count and dimension")
        if m < 2:
            raise ArcError("an arc system needs at least 2 points", m=m)
        if n < 1:
            raise ArcError("fiber dimension must be positive", n=n)
        self.m = m
        self.n = n
        chain = [(k, k + 1, 1) for k in range(m - 2)]
        self.lattice = plumbed(m - 1, chain, n)
        self.catalogue = {}
        for k in range(1, m):
            self.catalogue["a%d" % k] = MatchingArc(self, k)

    def __repr__(self):
        return "ArcSystem(m=%d, n=%d)" % (self.m, self.n)


def standard_arc(system, k):
    """The straight edge from p_k to p_{k+1}."""
    _check_arcs(system)
    k = exact_int(k, ArcError, "standard arc index")
    if not 1 <= k <= system.m - 1:
        raise ArcError(
            "standard arc index out of range", k=k, m=system.m
        )
    return system.catalogue["a%d" % k]


def apply_half_twist(system, arc, target, power=1):
    """Image of `target` under the half-twist along `arc`, to the power."""
    _check_arcs(system, arc, target)
    power = exact_int(power, ArcError, "half-twist power")
    if power == 0:
        return target
    image = MatchingArc(system, target.base_index,
                        ((arc, power),) + target.word)
    # gens(image) = gens(letter) + gens(target), applied right to left;
    # built now, so a long chain of twists never recurses to get them
    image._gens = _free_reduce(
        _letter_gens(arc, power) + target._mapping_gens())
    return image


# ---------------------------------------------------------------------------
# classes in the lattice


def _normalize_sign(coords):
    for c in coords:
        if c > 0:
            return tuple(coords)
        if c < 0:
            return tuple(-x for x in coords)
    return tuple(coords)


def arc_to_class(system, arc):
    """Lattice class of the arc: the base edge's class under the Dehn
    twists about e_k of its sigma-letters (k, s), rightmost first.

    The sign of a matching sphere's class is a choice; the first nonzero
    coordinate is normalized positive.
    """
    _check_arcs(system, arc)
    L = system.lattice
    v = L.basis_sphere(arc.base_index)
    for k, s in reversed(arc._mapping_gens()):
        v = twist_power(L, L.basis_sphere(k), v, s)
    return SphereClass(_normalize_sign(v.coords))


def induced_word(system, arc):
    """The lattice twist word an arc's half-twist history induces.

    Each half-twist about an inner arc becomes a twist about that arc's
    class; evaluating the word recovers arc_to_class up to the sign
    normalization (twists about S and -S agree).
    """
    _check_arcs(system, arc)
    letters = tuple(
        (arc_to_class(system, inner), power) for inner, power in arc.word)
    return TwistWord(letters, system.lattice.basis_sphere(arc.base_index))
