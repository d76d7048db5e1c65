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

The triples and the canonical form below are the key's independent
oracle: no move or comparison reaches them.

Encoding. An arc from p_i to p_j is represented by a triple (i, j, w)
where w is a word in the free group on loops x_1..x_m (x_l circles p_l
once counterclockwise, based below the line). w records the route of the
arc relative to the reference routes that approach each point from below;
it is well defined up to x_i-powers on the left and x_j-powers on the
right, an ambiguity the canonical form quotients away. Half-twists act on
triples by the standard substitution

    sigma_k:      x_k -> x_k x_{k+1} x_k^{-1},   x_{k+1} -> x_k
    sigma_k^{-1}: x_k -> x_{k+1},                x_{k+1} -> x_{k+1}^{-1} x_k x_{k+1}

together with connector letters that account for the endpoint being
dragged through the upper half-disk: under sigma_k the point p_{k+1}
travels above the line, so a word based at it picks up x_{k+1}^{+-1}; the
point p_k travels below and stays clean (and mirrored for sigma_k^{-1}).

Canonical form. Fix the fan of rays u_l, d_l running from each p_l up and
down to the boundary, and the gap segments g_0..g_m of the line between
consecutive points. Drawing the route of (i, j, w) through this fan gives
a sequence of crossings; two reductions compute its minimal position:
adjacent equal crossings bound an empty bigon and cancel, and a leading
(trailing) crossing with one of the four rays or gaps at the start (end)
point slides off around that point. The reduced sequence, together with
the endpoints and taken up to reversal, is a complete isotopy invariant.
`coords` are the crossing counts with the interior gaps and the lower
rays; equal arcs have equal coords, but the sequence is what decides
equality, since mirror windings can share all counts. The triple's word
can grow exponentially in the number of sigma-letters.

Classes. `arc_to_class` applies the arc's sigma-letters to the base
edge's class in the A_{m-1} lattice: the half-twist sigma_k acts on the
fiber as the Dehn twist about the sphere e_k of the standard edge k
(Seidel, Fukaya categories and Picard-Lefschetz theory, EMS 2008), and
naturality, tau_{phi(e)} = phi tau_e phi^{-1}, makes this the class the
half-twist history gives. `odd_class` reads the class off the canonical
diagram itself by a sheet-tracked signed crossing count (the homology
class of the arc's double lift, where the covering sheets swap across the
lower rays); it applies no twist formula, so agreement of the two routes
is a real cross-check rather than a tautology. The diagram route lives in
the antisymmetric (fiber dimension odd) lattice by nature.
"""

from . import LefweaveError
from .lattice import IntLattice, SphereClass, TwistWord, plumbing_gram, \
    twist_power


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


def _artin_letter(idx, s, k, sign):
    """Image of x_idx^s under sigma_k^sign.

    The positive twist carries p_k below the line, so the loop around it
    arrives at position k+1 unconjugated; the loop around p_{k+1} gets
    dragged over the top and picks up the conjugation.
    """
    if sign > 0:
        if idx == k:
            seq = ((k + 1, 1),)
        elif idx == k + 1:
            seq = ((k + 1, -1), (k, 1), (k + 1, 1))
        else:
            seq = ((idx, 1),)
    else:
        if idx == k:
            seq = ((k, 1), (k + 1, 1), (k, -1))
        elif idx == k + 1:
            seq = ((k, 1),)
        else:
            seq = ((idx, 1),)
    if s < 0:
        seq = _invert(seq)
    return seq


def _act_sigma(triple, k, sign):
    """Transform an arc triple by sigma_k^sign (sign = +-1)."""
    i, j, w = triple
    # connector letters for endpoints dragged through the upper half-disk;
    # the reduced word is unique, so one reduction at the end suffices
    dragged = k + 1 if sign > 0 else k
    out = [(dragged, sign)] if i == dragged else []
    for letter in w:
        if letter[0] == k or letter[0] == k + 1:
            out.extend(_artin_letter(letter[0], letter[1], k, sign))
        else:
            # sigma_k fixes every other loop
            out.append(letter)
    if j == dragged:
        out.append((dragged, -sign))
    swap = {k: k + 1, k + 1: k}
    return (swap.get(i, i), swap.get(j, j), _free_reduce(out))


def _apply_gens(triple, gens):
    """Apply a sequence of sigma-letters, rightmost (innermost) first."""
    for k, s in reversed(gens):
        triple = _act_sigma(triple, k, s)
    return triple


# ---------------------------------------------------------------------------
# drawing a triple through the fan and reducing the crossing sequence


def _draw(triple):
    """Raw crossing sequence of the route of (i, j, w) through the fan.

    Events are ('g', l) for gap segments, ('u', l) / ('d', l) for upper
    and lower rays. The route starts below p_i, realizes each letter as a
    finger over the circled point, and ends below p_j; between letters it
    travels through the lower cells, crossing the intervening d-rays.
    """
    i, j, w = triple
    events = []

    def travel(cur, dst):
        if dst > cur:
            events.extend(("d", l) for l in range(cur + 1, dst + 1))
        else:
            events.extend(("d", l) for l in range(cur, dst, -1))
        return dst

    cur = i
    for idx, s in w:
        if s > 0:
            cur = travel(cur, idx - 1)
            events.extend((("g", idx - 1), ("u", idx), ("g", idx)))
            cur = idx
        else:
            cur = travel(cur, idx)
            events.extend((("g", idx), ("u", idx), ("g", idx - 1)))
            cur = idx - 1
    travel(cur, j)
    return events


def _adjacent_to_point(event, p):
    kind, l = event
    if kind == "g":
        return l == p - 1 or l == p
    return l == p


def _reduce_events(events, i, j):
    """Cancel empty bigons and slide end crossings off around the points."""
    evs = list(events)
    while True:
        stack = []
        for e in evs:
            if stack and stack[-1] == e:
                stack.pop()
            else:
                stack.append(e)
        changed = len(stack) != len(evs)
        evs = stack
        while evs and _adjacent_to_point(evs[0], i):
            evs.pop(0)
            changed = True
        while evs and _adjacent_to_point(evs[-1], j):
            evs.pop()
            changed = True
        if not changed:
            return tuple(evs)


# ---------------------------------------------------------------------------
# Dynnikov coordinates: the isotopy key


def _dynnikov_key(u, gens):
    """Act on the key u = (a_1..a_{m-2}, b_1..b_{m-2}) by sigma-letters,
    rightmost (innermost) first, as `_apply_gens` does.

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
    outermost, applied to the standard edge with index `base_index`.
    Two arcs with the same system size, base edge and reduced
    sigma-letters are the same mapping class applied to the same edge,
    so they are equal outright; any other pair is compared, and every
    arc is hashed, by `key`, its Dynnikov coordinates, built from its
    sigma-letters on first use. The canonical
    form is the key's oracle, reached only through `endpoints`, `coords`,
    `odd_class` and `geometric_intersection`.
    """

    def __init__(self, system, base_index, word=()):
        self.system = system
        self.base_index = base_index
        self.word = tuple(word)
        self._gens = None
        self._key = None
        self._canon = None

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

    def triple(self):
        base = (self.base_index, self.base_index + 1, ())
        return _apply_gens(base, self._mapping_gens())

    def canonical(self):
        if self._canon is None:
            i, j, w = self.triple()
            evs = _reduce_events(_draw((i, j, w)), i, j)
            self._canon = min((i, j, evs), (j, i, tuple(reversed(evs))))
        return self._canon

    @property
    def endpoints(self):
        c = self.canonical()
        return (c[0], c[1])

    @property
    def coords(self):
        m = self.system.m
        evs = self.canonical()[2]
        gaps = [0] * (m - 1)
        rays = [0] * m
        for kind, l in evs:
            if kind == "g" and 1 <= l <= m - 1:
                gaps[l - 1] += 1
            elif kind == "d":
                rays[l - 1] += 1
        return tuple(gaps) + tuple(rays)

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


def _letter_gens(arc, power):
    """Sigma-letters of one half-twist letter: the arc's mapping class
    conjugating the base edge's twist to the power."""
    if power == 0:
        return ()
    inner = arc._mapping_gens()
    core = ((arc.base_index, 1 if power > 0 else -1),) * abs(power)
    return _free_reduce(inner + core + _invert(inner))


class ArcSystem:
    """m marked points on the disk with their standard edges catalogued.

    The associated lattice is the A_{m-1} chain in parity n: standard
    edge k maps to basis sphere e_k.
    """

    def __init__(self, m, n=2):
        if m < 2:
            raise ArcError("an arc system needs at least 2 points", m=m)
        if n < 1:
            raise ArcError("fiber dimension must be positive", n=n)
        self.m = m
        self.n = n
        chain = [(k, k + 1, 1) for k in range(m - 2)]
        self.lattice = IntLattice(plumbing_gram(m - 1, chain, n), n)
        self.catalogue = {}
        for k in range(1, m):
            self.catalogue["a%d" % k] = MatchingArc(self, k)

    def __repr__(self):
        return "ArcSystem(m=%d, n=%d)" % (self.m, self.n)


def standard_arc(system, k):
    """The straight edge from p_k to p_{k+1}."""
    if not 1 <= k <= system.m - 1:
        raise ArcError(
            "standard arc index out of range", k=k, m=system.m
        )
    return system.catalogue["a%d" % k]


def apply_half_twist(system, arc, target, power=1):
    """Image of `target` under the half-twist along `arc`, to the power."""
    if arc.system.m != system.m or target.system.m != system.m:
        raise ArcError(
            "arcs belong to a different system", m=system.m
        )
    if power == 0:
        return target
    image = MatchingArc(system, target.base_index,
                        ((arc, power),) + target.word)
    # gens(image) = gens(letter) + gens(target), applied right to left;
    # built now, so a long chain of twists never recurses to get them
    image._gens = _free_reduce(
        _letter_gens(arc, power) + target._mapping_gens())
    return image


def arcs_isotopic(system, a, b):
    """Whether two arcs are isotopic rel the marked points."""
    if a.system.m != system.m or b.system.m != system.m:
        raise ArcError("arcs belong to a different system", m=system.m)
    return a == b


def geometric_intersection(system, a, b):
    """Minimal number of interior crossings between the two arcs.

    Pull b back through the mapping class carrying the base edge to a;
    the crossings of the pulled-back arc with the base edge's gap segment
    are exactly the essential crossings. Shared endpoints never count.
    """
    if a.system.m != system.m or b.system.m != system.m:
        raise ArcError("arcs belong to a different system", m=system.m)
    gens = a._mapping_gens()
    inverse = tuple((k, -s) for k, s in reversed(gens))
    i, j, w = _apply_gens(b.triple(), inverse)
    evs = _reduce_events(_draw((i, j, w)), i, j)
    return sum(1 for e in evs if e == ("g", a.base_index))


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
    letters = tuple(
        (arc_to_class(system, inner), power) for inner, power in arc.word)
    return TwistWord(letters, system.lattice.basis_sphere(arc.base_index))


# cell/side tables for the diagram-route class. Cells ('U', c) and
# ('L', c) are the upper and lower regions over gap c; an event lies on a
# wall or the floor of the cell, to the left or right of the test line
# through the gap (crossing points on gaps are drawn mid-gap, the test
# line sits right of them).


def _piece_cell(e1, e2):
    """The cell both crossing events lie on the boundary of."""
    (k1, l1), (k2, l2) = e1, e2
    if k1 > k2 or (k1 == k2 and l1 > l2):
        (k1, l1), (k2, l2) = (k2, l2), (k1, l1)
    # now sorted: d < g < u, lower index first
    if k1 == "d" and k2 == "d":
        if l2 == l1 + 1:
            return ("L", l1)
    elif k1 == "d" and k2 == "g":
        if l2 == l1 - 1 or l2 == l1:
            return ("L", l2)
    elif k1 == "g" and k2 == "u":
        if l1 == l2 - 1 or l1 == l2:
            return ("U", l1)
    elif k1 == "u" and k2 == "u":
        if l2 == l1 + 1:
            return ("U", l1)
    raise ArcError("events share no cell", first=e1, second=e2)


def _event_side(event, cell):
    kind_cell, c = cell
    kind, l = event
    if kind == "g":
        if l == c:
            return "L"
    elif kind == "u" and kind_cell == "U" or kind == "d" and kind_cell == "L":
        if l == c:
            return "L"
        if l == c + 1:
            return "R"
    raise ArcError("event not on cell boundary", event=event, cell=cell)


def _endpoint_cell(event, p):
    kind, l = event
    key = 1 if l == p + 1 else (-1 if l == p - 1 else 0)
    if kind == "g" or key == 0:
        raise ArcError("crossing cannot follow the endpoint", event=event)
    region = "U" if kind == "u" else "L"
    return (region, p if key == 1 else p - 1)


def _point_side(p, cell):
    _, c = cell
    if p == c:
        return "L"
    if p == c + 1:
        return "R"
    raise ArcError("point not a corner of cell", point=p, cell=cell)


def odd_class(system, arc):
    """Class of the arc read off its canonical diagram alone.

    Tracks the covering sheet of the double lift (sheets swap across the
    lower rays) and counts signed crossings with a test line through each
    interior gap; the count vector is the homology class of the lifted
    circle in the antisymmetric lattice. No twist formula is involved.
    """
    m = system.m
    i, j, evs = arc.canonical()
    counts = [0] * (m - 1)

    def contribute(cell, side_in, side_out, sheet):
        _, c = cell
        if side_in == side_out or not 1 <= c <= m - 1:
            return
        direction = 1 if (side_in, side_out) == ("L", "R") else -1
        counts[c - 1] += direction * sheet

    sheet = 1
    if not evs:
        cell = ("U", min(i, j))
        contribute(cell, _point_side(i, cell), _point_side(j, cell), sheet)
    else:
        cell = _endpoint_cell(evs[0], i)
        contribute(
            cell, _point_side(i, cell), _event_side(evs[0], cell), sheet
        )
        for a, b in zip(evs, evs[1:]):
            if a[0] == "d":
                sheet = -sheet
            cell = _piece_cell(a, b)
            contribute(
                cell, _event_side(a, cell), _event_side(b, cell), sheet
            )
        if evs[-1][0] == "d":
            sheet = -sheet
        cell = _endpoint_cell(evs[-1], j)
        contribute(
            cell, _event_side(evs[-1], cell), _point_side(j, cell), sheet
        )

    # match the lattice's orientation convention, which pairs adjacent
    # basis spheres with +1 rather than the diagram's -1
    coords = tuple(
        c if l % 2 == 0 else -c for l, c in enumerate(counts)
    )
    return SphereClass(_normalize_sign(coords))
