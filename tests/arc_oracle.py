"""The crossing-diagram route for arcs: the tests' oracle for the arc engine.

`lefweave.arcs` decides isotopy by Dynnikov coordinates and gets classes
from sigma-letters. This module decides both a second way, from an arc's
`base_index`, `system.m` and `_mapping_gens()` alone. It keeps its own
copies of the free-word helpers and the sign normalization and imports
nothing else from the engine, so agreement of the two routes is a real
cross-check (tests/test_arcs.py checks the imports).

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

Classes. `odd_class` reads the class off the canonical diagram itself by
a sheet-tracked signed crossing count (the homology class of the arc's
double lift, where the covering sheets swap across the lower rays); it
applies no twist formula, so agreement with `arc_to_class` is a real
cross-check rather than a tautology. The diagram route lives in the
antisymmetric (fiber dimension odd) lattice by nature.
"""

from lefweave.arcs import ArcError
from lefweave.lattice import SphereClass


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
# an arc's triple, canonical form and the readings of it


def triple(arc):
    base = (arc.base_index, arc.base_index + 1, ())
    return _apply_gens(base, arc._mapping_gens())


def canonical(arc):
    i, j, w = triple(arc)
    evs = _reduce_events(_draw((i, j, w)), i, j)
    return min((i, j, evs), (j, i, tuple(reversed(evs))))


def endpoints(arc):
    c = canonical(arc)
    return (c[0], c[1])


def coords(arc):
    m = arc.system.m
    evs = canonical(arc)[2]
    gaps = [0] * (m - 1)
    rays = [0] * m
    for kind, l in evs:
        if kind == "g" and 1 <= l <= m - 1:
            gaps[l - 1] += 1
        elif kind == "d":
            rays[l - 1] += 1
    return tuple(gaps) + tuple(rays)


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
    i, j, w = _apply_gens(triple(b), inverse)
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
    i, j, evs = canonical(arc)
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
