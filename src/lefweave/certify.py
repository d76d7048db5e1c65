"""Flexibility certificates: the loose-pair rule, replay, and search.

A Certificate is a replayable program over a Lefschetz datum plus a
summary of which cycles it certified.  Looseness is granted by exactly
one syntactic pattern: a stabilization-sphere cycle S immediately
before a cycle whose word is (S, +1) * w, where S meets the underlying
class eval(w) exactly once.  A datum is accepted when every cycle is
loose-certified or a stabilization sphere; "subcritical" is the
stronger claim that no certifications were needed at all.

verify_certificate replays the program twice: once through the move
engine and once through the shadow interpreter of shadow.py, a minimal
independent interpreter over raw coordinate tuples.  Any disagreement
between the two rejects.

Certificate positions are 1-based and cyclic, like move positions; a
step acting across the basepoint (position k) is marked "[wrap]" in
the trace.
"""

import functools
import math
from collections import namedtuple

from . import LefweaveError, exact_int
from .lattice import pairing
from .presentation import (
    LefschetzDatum,
    boundary_connect_sum,
    hurwitz_left,
    hurwitz_right,
    rotate,
    stabilize,
    stabilize_label,
    subflexibilize,
    trivial_cycle,
)
from .shadow import _shadow_check


class CertifyError(LefweaveError):
    """Raised when a certificate step's precondition fails."""


Certificate = namedtuple(
    "Certificate", ("moves", "certifications", "terminal_claim"))

VerifyResult = namedtuple(
    "VerifyResult", ("accepted", "trace", "reason", "final"))


def _loose_pair_refusal(D, i):
    """rule_loose_pair's verdict on the pair at position i: None if the
    rule certifies it, else the (message, context) of its refusal.

    The checks run in the rule's order and build nothing, so the search
    can skip a refused pair without an error.  A position that is no
    integer is a malformed step, not a refused pair: it raises.
    """
    k = len(D.cycles)
    if k < 2:
        return "need at least two cycles to certify", {"k": k}
    i = exact_int(i, CertifyError, "certify position")
    if not 1 <= i <= k:
        return "certify position out of range", {"i": i, "k": k}
    lead = D.cycles[i - 1]
    follow = D.cycles[i % k]
    if not lead.stabilization_sphere:
        return "cycle %d is not a stabilization sphere" % i, {"i": i}
    sphere = lead.klass
    if not follow.word.letters:
        return "certified cycle has no twist letter to match", {"i": i}
    center, exp = follow.word.letters[0]
    negated = tuple(-c for c in sphere.coords)
    if exp != 1 or center.coords not in (sphere.coords, negated):
        return ("outermost letter is not a single twist about the sphere",
                {"i": i, "exponent": exp})
    # tau_S is an isometry fixing S up to sign, so S meets the class of
    # the rest of the word as often as it meets tau_S of it, the class
    # the follower already holds
    hits = pairing(D.fiber.lattice, sphere, follow.klass)
    if abs(hits) != 1:
        return ("sphere must meet the underlying class exactly once",
                {"i": i, "pairing": hits})
    return None


def rule_loose_pair(D, i):
    """Certify cycle i+1 as loose from the stabilization sphere at i.

    The pattern is the handle-attachment picture: the sphere S sits
    directly before a cycle tau_S(w) whose underlying class meets S in
    a single point, so the latter is attached along a loose Legendrian.
    """
    refusal = _loose_pair_refusal(D, i)
    if refusal is not None:
        message, context = refusal
        raise CertifyError(message, **context)
    cycles = list(D.cycles)
    b = exact_int(i, CertifyError, "certify position") % len(cycles)
    cycles[b] = cycles[b].as_loose()
    return LefschetzDatum(D.fiber, cycles, sf_spheres=D.sf_spheres)


def insert_sphere(D, after, label):
    """Add a catalogue stabilizing sphere as a new vanishing cycle.

    This is the total-space handle attachment of the flexification
    pipeline: the handle already lives in the fiber (attached by a
    stabilize or subflexibilize step); its belt sphere joins the cycle
    list after position ``after`` (0 prepends), flagged accordingly.
    """
    try:
        known = label in D.fiber.stabilizing_spheres
    except TypeError:  # an unhashable label
        known = False
    if not known:
        raise CertifyError(
            "label does not name a stabilizing sphere", label=label)
    after = exact_int(after, CertifyError, "insert position")
    k = len(D.cycles)
    if not 0 <= after <= k:
        raise CertifyError("insert position out of range", after=after, k=k)
    cycle = trivial_cycle(
        D.fiber, D.fiber.basis_sphere(label), stabilization_sphere=True)
    cycles = D.cycles[:after] + (cycle,) + D.cycles[after:]
    return LefschetzDatum(D.fiber, cycles)


_Step = namedtuple("_Step", ("word", "kinds", "run"))

# One row per move tag: the word that scripts and move texts use, the
# kinds of the step's arguments, and the engine call.  The calls go
# through module-level names, so a rebound name (a tracer's wrapper,
# say) is the one that runs.
STEPS = {
    "rotate": _Step("rotate", (), lambda D: rotate(D)),
    "hurwitz_left": _Step(
        "hurwitzL", ("pos",), lambda D, i: hurwitz_left(D, i)),
    "hurwitz_right": _Step(
        "hurwitzR", ("pos",), lambda D, i: hurwitz_right(D, i)),
    "certify_loose": _Step(
        "certify-loose", ("pos",), lambda D, i: rule_loose_pair(D, i)),
    "stabilize": _Step(
        "stabilize", ("ints", "label"),
        lambda D, pairings, label: stabilize(D, pairings, label)),
    "subflex": _Step(
        "subflex", ("disks",), lambda D, disks: subflexibilize(D, disks)),
    "bsum": _Step("bsum", ("datum",),
                  lambda D, other: boundary_connect_sum(D, other)),
    "insert_sphere": _Step(
        "insert-sphere", ("after", "label"),
        lambda D, after, label: insert_sphere(D, after, label)),
}


def _ints_text(values):
    return "[%s]" % ", ".join(str(v) for v in values)


# every other kind prints by str
_ARG_TEXT = {
    "ints": _ints_text,
    "disks": lambda disks: "[%s]" % ", ".join(
        "none" if d is None else _ints_text(d) for d in disks),
}


def step_text(tag, args):
    """A step's text: its word, then each given argument.

    A script step gives no stabilize label, so it prints as written.
    """
    row = STEPS[tag]
    return " ".join([row.word] + [
        _ARG_TEXT.get(kind, str)(arg) for kind, arg in zip(row.kinds, args)])


def apply_step(D, step):
    """Apply one (tag, args) certificate step through the move engine."""
    try:
        tag, args = step
        row = STEPS.get(tag)
        given = len(args)
    except (TypeError, ValueError):
        raise CertifyError("a step must be a (tag, args) pair",
                           step=step) from None
    if row is None:
        raise CertifyError("unknown move tag", tag=tag)
    if given != len(row.kinds):
        raise CertifyError("wrong number of step arguments", tag=tag,
                           expected=len(row.kinds), given=given)
    return row.run(D, *args)


def step_certifications(step, k):
    """Summary entries of a step on a datum of k cycles.

    Certifying the pair at position i marks cycle i % k + 1 loose.
    """
    if step[0] == "certify_loose":
        i = exact_int(step[1][0], CertifyError, "certify position")
        return ((i % k + 1, "loose_pair"),)
    return ()


def terminal_claim(D):
    """The claim a datum justifies: subcritical iff all cycles are
    stabilization spheres, else flexible."""
    if all(c.stabilization_sphere for c in D.cycles):
        return "subcritical"
    return "flexible"


def replay(D, moves):
    """Run a move list through the move engine from ``D``.

    Returns the final datum and the certificate of the run: the moves,
    the certifications they make, and the claim the final datum
    justifies.  A failing step raises its engine error.
    """
    current, summary = D, []
    for step in moves:
        k = len(current.cycles)
        current = apply_step(current, step)
        summary.extend(step_certifications(step, k))
    return current, Certificate(tuple(moves), tuple(summary),
                                terminal_claim(current))


def _describe(step, k):
    tag, args = step
    if tag in ("hurwitz_left", "hurwitz_right", "certify_loose"):
        i = exact_int(args[0], CertifyError, "move position")
        text = "%s %d" % (tag, i)
        if k >= 2 and i == k:
            text += " [wrap]"
        return text
    if tag == "stabilize":
        return "stabilize %s %s" % (tuple(args[0]), args[1])
    if tag == "insert_sphere":
        return "insert_sphere %d %s" % (args[0], args[1])
    if tag == "subflex":
        hit = sum(1 for p in args[0] if p is not None)
        return "subflex %d handle%s" % (hit, "" if hit == 1 else "s")
    if tag == "bsum":
        return "bsum +%d cycles" % len(args[0].cycles)
    return tag


def verify_certificate(D, cert):
    """Replay a certificate twice and accept iff both runs certify.

    Pass one drives the move engine; pass two re-interprets the same
    steps over raw coordinate data.  Accepts iff every final cycle is
    loose-certified or a stabilization sphere, the claim is justified,
    the certification summary matches the replay, and the two passes
    agree on every class and flag.
    """
    try:
        moves, certifications, claim = cert
        cert = Certificate(tuple(moves), tuple(certifications), claim)
    except (TypeError, ValueError):
        reason = "malformed certificate"
        return VerifyResult(False, ("rejected: " + reason,), reason, None)
    trace = []
    current = D
    collected = []
    for idx, step in enumerate(cert.moves, start=1):
        k = len(current.cycles)
        try:
            moved = apply_step(current, step)
        except LefweaveError as err:
            # the step as given: its arguments may not fit its tag, and
            # it may be no (tag, args) pair at all
            given = ("%s %r" % step if type(step) is tuple and len(step) == 2
                     else repr(step))
            trace.append("%d: %s -> error: %s" % (idx, given, err))
            return VerifyResult(
                False, tuple(trace), "step %d: %s" % (idx, err), None)
        trace.append("%d: %s" % (idx, _describe(step, k)))
        collected.extend(step_certifications(step, k))
        current = moved

    def reject(reason):
        trace.append("rejected: " + reason)
        return VerifyResult(False, tuple(trace), reason, current)

    for pos, cyc in enumerate(current.cycles, start=1):
        if not (cyc.loose_certified or cyc.stabilization_sphere):
            return reject(
                "cycle %d is neither loose-certified nor a stabilization "
                "sphere" % pos)
    if cert.terminal_claim == "subcritical":
        if any(not c.stabilization_sphere for c in current.cycles):
            return reject(
                "subcritical claim needs every cycle to be a stabilization "
                "sphere")
    elif cert.terminal_claim != "flexible":
        return reject("unknown terminal claim %r" % (cert.terminal_claim,))
    if tuple(collected) != cert.certifications:
        return reject("certification summary mismatch")
    problem = _shadow_check(D, cert, current)
    if problem is not None:
        return reject("independent replay disagrees: " + problem)
    trace.append(
        "accepted: every cycle is loose-certified or a stabilization sphere")
    return VerifyResult(True, tuple(trace), None, current)


def flexify_after_handles(D_sf):
    """Certify a subflexibilized datum by the handle-insertion pipeline.

    For each recorded handle: insert its sphere S right after the
    re-twisted cycle tau^2_S(V), Hurwitz the pair into (S, tau_S(V)),
    and certify the loose pair.  Returns the final datum and an
    accepting certificate.
    """
    chosen = dict(D_sf.sf_spheres)
    for pos, cyc in enumerate(D_sf.cycles, start=1):
        if pos in chosen or cyc.stabilization_sphere:
            continue
        if not D_sf.sf_spheres:
            raise CertifyError(
                "datum carries no subflexibilization record")
        raise CertifyError(
            "cycle %d was neither subflexibilized nor a stabilization "
            "sphere" % pos, i=pos)
    pairs = sorted(chosen.items())
    inserts, hurwitz, certs = [], [], []
    for j, (pos, label) in enumerate(pairs):
        q = pos + j
        inserts.append(("insert_sphere", (q, label)))
        hurwitz.append(("hurwitz_right", (q,)))
        certs.append(("certify_loose", (q,)))
    return replay(D_sf, inserts + hurwitz + certs)


@functools.lru_cache(maxsize=1024)
def _child_steps(rank, label, marks):
    """The (step, summary entries, need) rows of a node's children: a
    child is worth building only with at least ``need`` steps left.

    The node's fiber has rank ``rank`` and its next handle is
    ``label``; ``marks`` gives each cycle as 0 (unflagged), 1
    (loose-certified) or 2 (a stabilization sphere).  Canonical order:
    rotate, then hurwitz_left, hurwitz_right and certify_loose by
    ascending position, then fiber stabilizations along the basis-disk
    catalogue.  A certify_loose row whose lead is not a sphere is
    dropped, since the rule would refuse it.

    A step flags at most one cycle, so a child with u unflagged cycles
    needs u more steps.  hurwitz_left i takes the pair (a, b) at
    positions i, i % k + 1 to (0, a): an unflagged twisted cycle, then
    the lead; hurwitz_right i takes it to (b, 0); certify_loose i flags
    cycle i % k + 1; rotate and stabilize keep every flag.

    With exactly u steps left, only u certify_loose steps, each flagging
    a new cycle, can finish a child.  They move no cycle and change no
    sphere flag, and the rule refuses a lead that is not a sphere, so
    each unflagged cycle must already sit directly after a sphere,
    cyclically: a hurwitz or certify_loose child that is not so ready
    needs u + 1.  The verdict reads the child's marks alone, so an equal
    child reached at the same level or deeper is dropped too.

    A rotate or stabilize child needs one step to spare: certifications
    change only flags; rotate keeps every cyclic neighbour, and
    stabilize appends a sphere with an empty word that no letter is
    about, so it can neither lead nor be certified.  The same
    certifications, re-indexed, finish the parent one level sooner, and
    a search with no truncated level returns at that level or before:
    the child is never expanded.
    """
    k, u = len(marks), marks.count(0)

    def need(i, lead, follow):
        # the child's marks: the pair at position i becomes (lead, follow)
        child = list(marks)
        child[i - 1], child[i % k] = lead, follow
        return child.count(0) + any(
            m == 0 and child[j - 1] != 2 for j, m in enumerate(child))

    rows = []
    if k >= 2:
        pairs = [(i, marks[i - 1], marks[i % k]) for i in range(1, k + 1)]
        rows.append((("rotate", ()), u + 1))
        rows.extend((("hurwitz_left", (i,)), need(i, 0, a))
                    for i, a, b in pairs)
        rows.extend((("hurwitz_right", (i,)), need(i, b, 0))
                    for i, a, b in pairs)
        rows.extend((("certify_loose", (i,)), need(i, a, b or 1))
                    for i, a, b in pairs if a == 2)
    for j in range(rank):
        unit = tuple(1 if t == j else 0 for t in range(rank))
        rows.append((("stabilize", (unit, label)), u + 1))
    return tuple((step, step_certifications(step, k), needs)
                 for step, needs in rows)


def _children(frontier, seen, spare):
    """Yield each unseen (child, moves, summary) of the frontier's
    (datum, marks, moves, summary) entries in canonical order, adding
    the child to ``seen``; a row whose need exceeds ``spare`` is dropped
    (see _child_steps).  A certify_loose row, the only kind with summary
    entries, is built only if the rule's verdict certifies it: a refused
    row makes no error and no engine call."""
    for datum, marks, moves, summary in frontier:
        for step, certs, need in _child_steps(
                datum.fiber.lattice.rank, stabilize_label(datum.fiber), marks):
            if need > spare or certs and _loose_pair_refusal(
                    datum, step[1][0]) is not None:
                continue
            try:
                child = apply_step(datum, step)
            except LefweaveError:
                continue
            if child in seen:
                continue
            seen.add(child)
            yield child, moves + (step,), summary + certs


def _guard(frontier, left, width):
    """Whether no level within ``left`` of these (datum, marks, moves,
    summary) entries can be truncated to ``width`` nodes.  A node with k
    cycles over a rank-r fiber has r candidate steps, 1 + 3k + r if k > 1,
    and a step adds at most one cycle and one sphere, so a node j levels
    down has at most ``most + 4 * j``; no steps, no children."""
    bound = most = 0
    for datum, marks, _, _ in frontier:
        k, rank = len(marks), datum.fiber.lattice.rank
        bound += (1 + 3 * k if k >= 2 else 0) + rank
        most = max(most, 1 + 3 * k + rank)
    for j in range(1, left):
        if not bound or bound > width:
            break
        bound *= most + 4 * j
    return bound <= width


def search_certificate(D, depth, width):
    """Breadth-first search for an accepting certificate.

    Deterministic: level 0 is ``D`` alone, children are built in
    canonical step order, each level is truncated to ``width`` nodes, and
    the first accepting node wins; it is returned as soon as it is
    built.  Depth counts every step, certifications included.  A miss
    means "no certificate within bounds", nothing more.

    A level drops the children that cannot be finished in the steps left
    (see _child_steps) when _guard says that no level from there on can
    be truncated.  The survivors keep their order, and a dropped node can
    shadow, through ``seen``, only a node that would be dropped too or is
    never expanded: results and width semantics are those of building
    every level.
    """
    depth = exact_int(depth, CertifyError, "search bounds")
    width = exact_int(width, CertifyError, "search bounds")
    if depth < 0:
        raise CertifyError("depth must be nonnegative", depth=depth)
    if width < 1:
        raise CertifyError("width must be positive", width=width)
    seen = {D}
    level = [(D, (), ())]
    for left in range(depth, -1, -1):
        # one read of each node's flags: its marks and whether it accepts
        frontier = []
        for datum, moves, summary in level:
            marks = tuple(2 if c.stabilization_sphere else
                          1 if c.loose_certified else 0
                          for c in datum.cycles)
            if 0 not in marks:
                return Certificate(moves, summary, terminal_claim(datum))
            frontier.append((datum, marks, moves, summary))
            if len(frontier) == width:
                break
        if not frontier or not left:
            return None
        spare = left - 1 if _guard(frontier, left, width) else math.inf
        level = _children(frontier, seen, spare)
