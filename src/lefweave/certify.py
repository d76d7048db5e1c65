"""Flexibility certificates: the loose-pair rule, replay, and search.

A Certificate is a replayable program over a Lefschetz datum plus a
summary of which cycles it certified.  Looseness is granted by exactly
one syntactic pattern: a stabilization-sphere cycle S immediately
before a cycle whose word is (S, +1) * w, where S meets the underlying
class eval(w) exactly once.  A datum is accepted when every cycle is
loose-certified or a stabilization sphere; "subcritical" is the
stronger claim that no certifications were needed at all.

verify_certificate replays the program twice: once through the move
engine and once through a minimal independent interpreter over raw
coordinate tuples.  Any disagreement between the two rejects.

Certificate positions are 1-based and cyclic, like move positions; a
step acting across the basepoint (position k) is marked "[wrap]" in
the trace.
"""

import functools
from collections import namedtuple

from . import LefweaveError
from .lattice import pairing
from .presentation import (
    LefschetzDatum,
    VanishingCycle,
    boundary_connect_sum,
    hurwitz_left,
    hurwitz_right,
    rotate,
    stabilize,
    stabilize_label,
    subflexibilize,
    trivial_cycle,
)


class CertifyError(LefweaveError):
    """Raised when a certificate step's precondition fails."""


Certificate = namedtuple(
    "Certificate", ("moves", "certifications", "terminal_claim"))

VerifyResult = namedtuple(
    "VerifyResult", ("accepted", "trace", "reason", "final"))


def _cyclic_pair(D, i):
    k = len(D.cycles)
    if k < 2:
        raise CertifyError("need at least two cycles to certify", k=k)
    if not 1 <= i <= k:
        raise CertifyError("certify position out of range", i=i, k=k)
    return i - 1, i % k


def rule_loose_pair(D, i):
    """Certify cycle i+1 as loose from the stabilization sphere at i.

    The pattern is the handle-attachment picture: the sphere S sits
    directly before a cycle tau_S(w) whose underlying class meets S in
    a single point, so the latter is attached along a loose Legendrian.
    """
    a, b = _cyclic_pair(D, i)
    lead = D.cycles[a]
    follow = D.cycles[b]
    if not lead.stabilization_sphere:
        raise CertifyError(
            "cycle %d is not a stabilization sphere" % i, i=i)
    sphere = lead.klass
    if not follow.word.letters:
        raise CertifyError(
            "certified cycle has no twist letter to match", i=i)
    center, exp = follow.word.letters[0]
    negated = tuple(-c for c in sphere.coords)
    if exp != 1 or center.coords not in (sphere.coords, negated):
        raise CertifyError(
            "outermost letter is not a single twist about the sphere",
            i=i, exponent=exp)
    # tau_S is an isometry fixing S up to sign, so S meets the class of
    # the rest of the word as often as it meets tau_S of it, the class
    # the follower already holds
    hits = pairing(D.fiber.lattice, sphere, follow.klass)
    if abs(hits) != 1:
        raise CertifyError(
            "sphere must meet the underlying class exactly once",
            i=i, pairing=hits)
    cycles = list(D.cycles)
    cycles[b] = VanishingCycle._derived(
        follow.word, follow.klass, arc=follow.arc,
        stabilization_sphere=follow.stabilization_sphere,
        loose_certified=True)
    return LefschetzDatum(D.fiber, cycles, sf_spheres=D.sf_spheres)


def insert_sphere(D, after, label):
    """Add a catalogue stabilizing sphere as a new vanishing cycle.

    This is the total-space handle attachment of the flexification
    pipeline: the handle already lives in the fiber (attached by a
    stabilize or subflexibilize step); its belt sphere joins the cycle
    list after position ``after`` (0 prepends), flagged accordingly.
    """
    if label not in D.fiber.stabilizing_spheres:
        raise CertifyError(
            "label does not name a stabilizing sphere", label=label)
    k = len(D.cycles)
    if not 0 <= after <= k:
        raise CertifyError("insert position out of range", after=after, k=k)
    cycle = trivial_cycle(
        D.fiber, D.fiber.basis_sphere(label), stabilization_sphere=True)
    cycles = D.cycles[:after] + (cycle,) + D.cycles[after:]
    return LefschetzDatum(D.fiber, cycles)


def _bsum(D, other):
    if not isinstance(other, LefschetzDatum):
        raise CertifyError("bsum argument must be a datum")
    return boundary_connect_sum(D, other)


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
    "bsum": _Step("bsum", ("datum",), lambda D, other: _bsum(D, other)),
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
    tag, args = step
    if tag not in STEPS:
        raise CertifyError("unknown move tag", tag=tag)
    row = STEPS[tag]
    if len(args) != len(row.kinds):
        raise CertifyError("wrong number of step arguments", tag=tag,
                           expected=len(row.kinds), given=len(args))
    return row.run(D, *args)


def step_certifications(step, k):
    """Summary entries of a step on a datum of k cycles.

    Certifying the pair at position i marks cycle i % k + 1 loose.
    """
    if step[0] == "certify_loose":
        return ((step[1][0] % k + 1, "loose_pair"),)
    return ()


def terminal_claim(D):
    """The claim a datum justifies: subcritical iff all cycles are
    stabilization spheres, else flexible."""
    if all(c.stabilization_sphere for c in D.cycles):
        return "subcritical"
    return "flexible"


def _describe(step, k):
    tag, args = step
    if tag in ("hurwitz_left", "hurwitz_right", "certify_loose"):
        text = "%s %d" % (tag, args[0])
        if k >= 2 and args[0] == k:
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
    trace = []
    current = D
    collected = []
    for idx, step in enumerate(cert.moves, start=1):
        k = len(current.cycles)
        try:
            moved = apply_step(current, step)
        except LefweaveError as err:
            # the step as given: its arguments may not fit its tag
            trace.append("%d: %s %r -> error: %s" % (idx, *step, err))
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
    if tuple(collected) != tuple(cert.certifications):
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
    moves = tuple(inserts + hurwitz + certs)
    current, summary = D_sf, []
    for step in moves:
        summary.extend(step_certifications(step, len(current.cycles)))
        current = apply_step(current, step)
    return current, Certificate(moves, tuple(summary),
                                terminal_claim(current))


def _all_flagged(D):
    return all(c.loose_certified or c.stabilization_sphere
               for c in D.cycles)


@functools.lru_cache(maxsize=256)
def _step_table(k, rank, label):
    """Each candidate step on k cycles over a rank-``rank`` fiber whose
    next handle is ``label``, paired with its summary entries.

    Canonical order: rotate, then hurwitz_left, hurwitz_right and
    certify_loose by ascending position, then fiber stabilizations
    along the basis-disk catalogue.
    """
    steps = []
    if k >= 2:
        steps.append(("rotate", ()))
        for tag in ("hurwitz_left", "hurwitz_right", "certify_loose"):
            steps.extend((tag, (i,)) for i in range(1, k + 1))
    for j in range(rank):
        unit = tuple(1 if t == j else 0 for t in range(rank))
        steps.append(("stabilize", (unit, label)))
    return tuple((step, step_certifications(step, k)) for step in steps)


def _child_steps(D):
    """The shared (step, summary entries) table for D's children."""
    return _step_table(len(D.cycles), D.fiber.lattice.rank,
                       stabilize_label(D.fiber))


def _loose_steps(D):
    """The one (step, summary entries) that can make D's child accept.

    Only a certify_loose child can be all-flagged: a Hurwitz child holds
    its new twisted cycle unflagged, and rotate and stabilize keep the
    parent's flags.  So D needs exactly one unflagged cycle b, certified
    from position i = b or k (i % k == b); the search drops the step
    unless the cycle before b is a stabilization sphere.
    """
    cycles = D.cycles
    k = len(cycles)
    unflagged = [b for b, c in enumerate(cycles)
                 if not (c.loose_certified or c.stabilization_sphere)]
    if k < 2 or len(unflagged) != 1:
        return ()
    step = ("certify_loose", (unflagged[0] or k,))
    return ((step, step_certifications(step, k)),)


def search_certificate(D, depth, width):
    """Breadth-first search for an accepting certificate.

    Deterministic: children are built in canonical step order, each
    level is truncated to ``width`` nodes, and the first accepting node
    wins; it is returned as soon as it is built.  Depth counts every
    step, certifications included.  A miss means "no certificate within
    bounds", nothing more.

    On the last level only an accepting child counts.  When its parents
    have at most ``width`` candidate steps in all, no truncation can
    happen there, so each parent tries only the one step that could
    accept (see _loose_steps).  Results and width semantics are those
    of building the level.
    """
    if depth < 0:
        raise CertifyError("depth must be nonnegative", depth=depth)
    if width < 1:
        raise CertifyError("width must be positive", width=width)
    if _all_flagged(D):
        return Certificate((), (), terminal_claim(D))
    seen = {D}
    frontier = [(D, (), ())]
    for level in range(1, depth + 1):
        steps_of = _child_steps
        if level == depth and sum(
                len(_child_steps(datum)) for datum, _, _ in frontier) <= width:
            steps_of = _loose_steps
        grown = []
        for datum, moves, summary in frontier:
            if len(grown) >= width:
                break
            cycles = datum.cycles
            for step, certs in steps_of(datum):
                # only certify_loose steps carry entries; one whose lead
                # is not a stabilization sphere would raise CertifyError
                if certs and not cycles[step[1][0] - 1].stabilization_sphere:
                    continue
                try:
                    child = apply_step(datum, step)
                except LefweaveError:
                    continue
                if child in seen:
                    continue
                if _all_flagged(child):
                    return Certificate(moves + (step,), summary + certs,
                                       terminal_claim(child))
                seen.add(child)
                grown.append((child, moves + (step,), summary + certs))
                if len(grown) >= width:
                    break
        if not grown:
            break
        frontier = grown
    return None


# --- independent second pass ------------------------------------------
#
# A deliberately small interpreter over raw tuples: no VanishingCycle,
# no TwistWord, no FiberModel.  It re-derives every class and flag so a
# bookkeeping bug in the move engine cannot silently certify.

_ShadowCycle = namedtuple("_ShadowCycle", ("letters", "base", "stab",
                                           "loose"))


def _shadow_state(D):
    lattice = D.fiber.lattice
    cycles = []
    for c in D.cycles:
        letters = tuple(
            (tuple(center.coords), int(exp)) for center, exp in c.word.letters)
        cycles.append(_ShadowCycle(
            letters, tuple(c.word.base.coords),
            c.stabilization_sphere, c.loose_certified))
    return {
        "n": lattice.n,
        "gram": [list(row) for row in lattice.gram],
        "labels": list(D.fiber.basis_labels),
        "catalog": set(D.fiber.stabilizing_spheres),
        "cycles": cycles,
    }


def _dot(gram, x, y):
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = gram[i]
            for j, yj in enumerate(y):
                if yj:
                    total += xi * row[j] * yj
    return total


def _twist(gram, n, center, exp, x):
    if n % 2 == 1:
        h = exp * _dot(gram, x, center)
        return tuple(xi + h * ci for xi, ci in zip(x, center))
    if exp % 2 == 0:
        return x
    self_pairing = _dot(gram, center, center)
    if self_pairing not in (2, -2):
        raise CertifyError(
            "shadow: invalid twist center", self_pairing=self_pairing)
    h = (-2 // self_pairing) * _dot(gram, x, center)
    return tuple(xi + h * ci for xi, ci in zip(x, center))


def _eval(gram, n, letters, base):
    x = base
    for center, exp in reversed(letters):
        x = _twist(gram, n, center, exp, x)
    return x


def _prepend(letters, center, exp):
    if letters and letters[0][0] == center:
        merged = letters[0][1] + exp
        if merged == 0:
            return letters[1:]
        return ((center, merged),) + letters[1:]
    return ((center, exp),) + letters


def _pad_vec(vec, before, after):
    return (0,) * before + tuple(vec) + (0,) * after


def _pad_cycle(c, before, after):
    letters = tuple(
        (_pad_vec(center, before, after), exp) for center, exp in c.letters)
    return _ShadowCycle(letters, _pad_vec(c.base, before, after),
                        c.stab, c.loose)


def _sh_positions(state, i):
    k = len(state["cycles"])
    if k < 2 or not 1 <= i <= k:
        raise CertifyError("shadow: bad pair position", i=i, k=k)
    return i - 1, i % k


def _sh_self_pairing(n):
    if n % 2 == 1:
        return 0
    return 2 if (n * (n + 1) // 2) % 2 == 0 else -2


def _sh_attach(state, pairings, label):
    gram = state["gram"]
    if len(pairings) != len(gram):
        raise CertifyError("shadow: pairing length mismatch", label=label)
    if label in state["labels"]:
        raise CertifyError("shadow: label collision", label=label)
    flip = 1 if state["n"] % 2 == 0 else -1
    for row, p in zip(gram, pairings):
        row.append(flip * p)
    gram.append(list(pairings) + [_sh_self_pairing(state["n"])])
    state["labels"].append(label)
    state["catalog"].add(label)
    state["cycles"] = [_pad_cycle(c, 0, 1) for c in state["cycles"]]


def _sh_unit(state, label):
    j = state["labels"].index(label)
    rank = len(state["labels"])
    return tuple(1 if t == j else 0 for t in range(rank))


def _sh_apply(state, step):
    tag, args = step
    gram, n = state["gram"], state["n"]
    cycles = state["cycles"]
    if tag == "rotate":
        if len(cycles) >= 2:
            state["cycles"] = cycles[1:] + cycles[:1]
        return
    if tag in ("hurwitz_left", "hurwitz_right"):
        a, b = _sh_positions(state, args[0])
        lead, follow = cycles[a], cycles[b]
        if tag == "hurwitz_left":
            klass = _eval(gram, n, lead.letters, lead.base)
            moved = _ShadowCycle(
                _prepend(follow.letters, klass, 1), follow.base,
                False, False)
            cycles[a], cycles[b] = moved, lead
        else:
            klass = _eval(gram, n, follow.letters, follow.base)
            moved = _ShadowCycle(
                _prepend(lead.letters, klass, -1), lead.base,
                False, False)
            cycles[a], cycles[b] = follow, moved
        return
    if tag == "stabilize":
        pairings = tuple(int(x) for x in args[0])
        _sh_attach(state, pairings, args[1])
        state["cycles"].append(_ShadowCycle(
            (), _sh_unit(state, args[1]), True, False))
        return
    if tag == "subflex":
        disks = list(args[0])
        if len(disks) != len(cycles):
            raise CertifyError("shadow: one disk per cycle")
        base_rank = len(state["labels"])
        # built on the side and committed once every disk has passed
        gram = [list(row) for row in gram]
        trial = dict(state, gram=gram, labels=list(state["labels"]),
                     catalog=set(state["catalog"]))
        attached = 0
        for pos, disk in enumerate(disks, start=1):
            if disk is None:
                continue
            disk = tuple(int(x) for x in disk)
            if len(disk) != base_rank:
                raise CertifyError("shadow: disk length mismatch", i=pos)
            label = "s%d" % pos
            while label in trial["labels"]:
                label += "'"
            _sh_attach(trial, disk + (0,) * attached, label)
            attached += 1
            cycles = trial["cycles"]
            sphere = _sh_unit(trial, label)
            target = cycles[pos - 1]
            hits = _dot(gram, sphere,
                        _eval(gram, n, target.letters, target.base))
            if abs(hits) != 1:
                raise CertifyError(
                    "shadow: disk must meet its cycle once", i=pos)
            cycles[pos - 1] = _ShadowCycle(
                _prepend(target.letters, sphere, 2), target.base,
                False, False)
        state.update(trial)
        return
    if tag == "bsum":
        other = _shadow_state(args[0])
        if other["n"] != n:
            raise CertifyError("shadow: parity mismatch")
        r1, r2 = len(state["labels"]), len(other["labels"])
        if r2 == 0 and not other["cycles"]:
            return
        if r1 == 0 and not cycles:
            state.update(other)
            return
        rename = {}
        for lab in other["labels"]:
            fresh = lab
            while fresh in state["labels"]:
                fresh += "'"
            rename[lab] = fresh
            state["labels"].append(fresh)
        for row in gram:
            row.extend([0] * r2)
        for row in other["gram"]:
            gram.append([0] * r1 + list(row))
        for lab in other["catalog"]:
            state["catalog"].add(rename[lab])
        state["cycles"] = (
            [_pad_cycle(c, 0, r2) for c in cycles]
            + [_pad_cycle(c, r1, 0) for c in other["cycles"]])
        return
    if tag == "insert_sphere":
        after, label = args
        if label not in state["catalog"]:
            raise CertifyError("shadow: not a stabilizing sphere",
                               label=label)
        if not 0 <= after <= len(cycles):
            raise CertifyError("shadow: bad insert position", after=after)
        cycles.insert(after, _ShadowCycle(
            (), _sh_unit(state, label), True, False))
        return
    if tag == "certify_loose":
        a, b = _sh_positions(state, args[0])
        lead, follow = cycles[a], cycles[b]
        if not lead.stab:
            raise CertifyError("shadow: lead is not a sphere", i=args[0])
        sphere = _eval(gram, n, lead.letters, lead.base)
        if not follow.letters:
            raise CertifyError("shadow: no twist letter", i=args[0])
        center, exp = follow.letters[0]
        negated = tuple(-c for c in sphere)
        if exp != 1 or center not in (sphere, negated):
            raise CertifyError("shadow: head letter mismatch", i=args[0])
        rest = _eval(gram, n, follow.letters[1:], follow.base)
        if abs(_dot(gram, sphere, rest)) != 1:
            raise CertifyError("shadow: transverse hypothesis fails",
                               i=args[0])
        cycles[b] = _ShadowCycle(follow.letters, follow.base,
                                 follow.stab, True)
        return
    raise CertifyError("shadow: unknown move tag", tag=tag)


def _shadow_check(D, cert, final):
    """Re-run the certificate on raw data; report the first mismatch."""
    try:
        state = _shadow_state(D)
        for step in cert.moves:
            _sh_apply(state, step)
    except CertifyError as err:
        return str(err)
    cycles = state["cycles"]
    if len(cycles) != len(final.cycles):
        return "cycle count differs"
    gram, n = state["gram"], state["n"]
    for pos, (shadow, engine) in enumerate(zip(cycles, final.cycles), 1):
        if _eval(gram, n, shadow.letters, shadow.base) != engine.klass.coords:
            return "class of cycle %d differs" % pos
        if (shadow.stab, shadow.loose) != (engine.stabilization_sphere,
                                           engine.loose_certified):
            return "flags of cycle %d differ" % pos
    if [tuple(row) for row in gram] != \
            [tuple(row) for row in final.fiber.lattice.gram]:
        return "fiber gram differs"
    if not all(c.loose or c.stab for c in cycles):
        return "an uncertified cycle remains"
    return None
