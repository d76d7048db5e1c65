"""The shadow interpreter: verify_certificate's independent second pass.

A deliberately small interpreter over raw tuples: no VanishingCycle,
no TwistWord, no FiberModel.  It reads a datum's attributes and a
certificate's steps, re-derives every class and flag, and compares them
with the move engine's final datum, so a bookkeeping bug in the engine
cannot silently certify.  It shares no code with the engine: it imports
the standard library and the package's error base only.
"""

import operator
from collections import namedtuple

from . import LefweaveError


class ShadowError(LefweaveError):
    """Raised when the shadow rejects a certificate step."""


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
        raise ShadowError(
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
    i = operator.index(i)
    if k < 2 or not 1 <= i <= k:
        raise ShadowError("shadow: bad pair position", i=i, k=k)
    return i - 1, i % k


def _sh_self_pairing(n):
    if n % 2 == 1:
        return 0
    return 2 if (n * (n + 1) // 2) % 2 == 0 else -2


def _sh_attach(state, pairings, label):
    gram = state["gram"]
    if len(pairings) != len(gram):
        raise ShadowError("shadow: pairing length mismatch", label=label)
    if label in state["labels"]:
        raise ShadowError("shadow: label collision", label=label)
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
            raise ShadowError("shadow: one disk per cycle")
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
                raise ShadowError("shadow: disk length mismatch", i=pos)
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
                raise ShadowError(
                    "shadow: disk must meet its cycle once", i=pos)
            cycles[pos - 1] = _ShadowCycle(
                _prepend(target.letters, sphere, 2), target.base,
                False, False)
        state.update(trial)
        return
    if tag == "bsum":
        other = _shadow_state(args[0])
        if other["n"] != n:
            raise ShadowError("shadow: parity mismatch")
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
        after, label = operator.index(args[0]), args[1]
        if label not in state["catalog"]:
            raise ShadowError("shadow: not a stabilizing sphere",
                               label=label)
        if not 0 <= after <= len(cycles):
            raise ShadowError("shadow: bad insert position", after=after)
        cycles.insert(after, _ShadowCycle(
            (), _sh_unit(state, label), True, False))
        return
    if tag == "certify_loose":
        a, b = _sh_positions(state, args[0])
        lead, follow = cycles[a], cycles[b]
        if not lead.stab:
            raise ShadowError("shadow: lead is not a sphere", i=args[0])
        sphere = _eval(gram, n, lead.letters, lead.base)
        if not follow.letters:
            raise ShadowError("shadow: no twist letter", i=args[0])
        center, exp = follow.letters[0]
        negated = tuple(-c for c in sphere)
        if exp != 1 or center not in (sphere, negated):
            raise ShadowError("shadow: head letter mismatch", i=args[0])
        rest = _eval(gram, n, follow.letters[1:], follow.base)
        if abs(_dot(gram, sphere, rest)) != 1:
            raise ShadowError("shadow: transverse hypothesis fails",
                               i=args[0])
        cycles[b] = _ShadowCycle(follow.letters, follow.base,
                                 follow.stab, True)
        return
    raise ShadowError("shadow: unknown move tag", tag=tag)


def _shadow_check(D, cert, final):
    """Re-run the certificate on raw data; report the first mismatch."""
    try:
        state = _shadow_state(D)
        for step in cert.moves:
            _sh_apply(state, step)
    except ShadowError as err:
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
