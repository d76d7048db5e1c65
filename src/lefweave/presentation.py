"""Lefschetz data: a fiber plus a cyclic word of vanishing cycles.

A datum W(M; V_1, ..., V_k) presents a Weinstein domain: the fiber M is a
FiberModel and each vanishing cycle is a Lagrangian sphere in M recorded
symbolically, as a twist word applied to a base class (plus, when
available, the matching arc realizing it in the fiber's disk model).

All move functions return fresh values; data are immutable.  Move
positions are 1-based and cyclic: position i acts on the adjacent pair
(i, i+1), with i = k wrapping around to pair (k, 1).
"""

from . import Immutable, LefweaveError, exact_int, exact_ints
from .arcs import apply_half_twist
from .fibers import FiberModel, attach_stabilizing_handle
from .lattice import TwistWord, evaluate_word, orthogonal_sum, pairing, \
    twist_power


class MoveError(LefweaveError):
    """Raised for invalid positions, parities, or broken preconditions."""


class VanishingCycle(Immutable):
    """A vanishing cycle: symbolic twist word, cached class, flags.

    Invariant: ``klass == evaluate_word(lattice, word)``.  The public
    constructor evaluates the word.  The moves below instead derive the
    class of a new cycle from cached classes, by one twist or by padding
    into a larger lattice, which gives the same value exactly.  The
    engine-consistency tests check the invariant after random moves, and
    verify_certificate's independent replay re-evaluates every word.
    ``stabilization_sphere`` marks cycles introduced by a stabilize step;
    ``loose_certified`` is set by the certificate layer, via as_loose.
    """

    __slots__ = ("word", "klass", "arc", "stabilization_sphere",
                 "loose_certified", "_hash", "_grown")

    def __init__(self, lattice, word, arc=None, stabilization_sphere=False):
        self._fill(word, evaluate_word(lattice, word), arc,
                   stabilization_sphere, False)

    @classmethod
    def _derived(cls, word, klass, arc=None, stabilization_sphere=False,
                 loose_certified=False):
        """A cycle whose class the caller derived exactly from the word."""
        self = object.__new__(cls)
        self._fill(word, klass, arc, stabilization_sphere, loose_certified)
        return self

    def _fill(self, word, klass, arc, stabilization_sphere, loose_certified):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "klass", klass)
        object.__setattr__(self, "arc", arc)
        object.__setattr__(self, "stabilization_sphere",
                           bool(stabilization_sphere))
        object.__setattr__(self, "loose_certified", bool(loose_certified))
        object.__setattr__(self, "_hash", None)
        # this cycle embedded by (0, 1), shared by every stabilize child
        object.__setattr__(self, "_grown", None)

    def as_loose(self):
        """This cycle, certified loose."""
        return VanishingCycle._derived(
            self.word, self.klass, arc=self.arc,
            stabilization_sphere=self.stabilization_sphere,
            loose_certified=True)

    def _key(self):
        return (self.word, self.arc, self.stabilization_sphere,
                self.loose_certified)

    def __eq__(self, other):
        if not isinstance(other, VanishingCycle):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        # The arc stays out: hashing it, even by its key, made a
        # search-arcs pass about 12% slower (best-of-3 CPU, 3 pairs).
        # Equal cycles have equal words, so they still hash equal; two
        # cycles that differ only in a non-isotopic arc share a hash and
        # are told apart by __eq__.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.word, self.stabilization_sphere, self.loose_certified)))
        return self._hash

    def __repr__(self):
        flags = []
        if self.stabilization_sphere:
            flags.append("sphere")
        if self.loose_certified:
            flags.append("loose")
        return "VanishingCycle(%r%s)" % (
            self.klass.coords, ", ".join([""] + flags))


def trivial_cycle(fiber, klass, stabilization_sphere=False):
    """A cycle with an empty twist word on the given class."""
    return VanishingCycle(fiber.lattice, TwistWord((), klass),
                          stabilization_sphere=stabilization_sphere)


class LefschetzDatum(Immutable):
    """An immutable (fiber; cycles) pair with optional handle provenance.

    ``sf_spheres`` records, as (cycle position, handle label) pairs, which
    cycles were re-twisted by subflexibilize; moves that reorder or merge
    cycles clear it.
    """

    __slots__ = ("fiber", "cycles", "sf_spheres", "_hash")

    def __init__(self, fiber, cycles, sf_spheres=()):
        cycles = tuple(cycles)
        rank = fiber.lattice.rank
        for pos, cyc in enumerate(cycles, start=1):
            if len(cyc.klass.coords) != rank:
                raise MoveError(
                    "cycle class does not live in the fiber lattice",
                    position=pos, rank=rank, got=len(cyc.klass.coords))
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "sf_spheres", tuple(sf_spheres))
        object.__setattr__(self, "_hash", None)

    @property
    def n(self):
        return self.fiber.lattice.n

    def _key(self):
        return (self.fiber._key, self.cycles, self.sf_spheres)

    def __eq__(self, other):
        if not isinstance(other, LefschetzDatum):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.fiber._key_hash, self.cycles, self.sf_spheres)))
        return self._hash

    def __repr__(self):
        return "LefschetzDatum(rank=%d, k=%d, n=%d)" % (
            self.fiber.lattice.rank, len(self.cycles), self.n)


def _embed_cycle(cyc, before, after, keep_arc=True):
    """The cycle in a lattice grown by ``before`` and ``after`` new basis
    vectors around the old ones, with no old pairing changed.

    Classes padded with zeros pair as before, so each twist acts on the
    padded coordinates as before: the class is the padded class.
    """
    return VanishingCycle._derived(
        cyc.word.padded(before, after),
        cyc.klass.padded(before, after),
        arc=cyc.arc if keep_arc else None,
        stabilization_sphere=cyc.stabilization_sphere,
        loose_certified=cyc.loose_certified,
    )


def _grow_cycle(cyc):
    """The cycle embedded by (0, 1) for one more handle, built once."""
    if cyc._grown is None:
        object.__setattr__(cyc, "_grown", _embed_cycle(cyc, 0, 1))
    return cyc._grown


def _pair_positions(D, i):
    k = len(D.cycles)
    if k < 2:
        raise MoveError("need at least two cycles to move", k=k)
    i = exact_int(i, MoveError, "move position")
    if not 1 <= i <= k:
        raise MoveError("move position out of range", i=i, k=k)
    return i - 1, i % k


def _twisted_cycle(D, center, target, exp):
    """tau_center^exp of the target cycle, from the two cached classes.

    The class is exact even when the new letter merges into the word's
    first one: tau^(a+exp) = tau^exp after tau^a.
    """
    arc = None
    sys = D.fiber.arc_system
    if sys is not None and center.arc is not None and target.arc is not None:
        arc = apply_half_twist(sys, center.arc, target.arc, exp)
    klass = twist_power(D.fiber.lattice, center.klass, target.klass, exp)
    return VanishingCycle._derived(target.word.prepend(center.klass, exp),
                                   klass, arc=arc)


def hurwitz_left(D, i):
    """(..., V_i, V_{i+1}, ...) -> (..., tau_{V_i} V_{i+1}, V_i, ...)."""
    a, b = _pair_positions(D, i)
    vi, vj = D.cycles[a], D.cycles[b]
    cycles = list(D.cycles)
    cycles[a] = _twisted_cycle(D, vi, vj, 1)
    cycles[b] = vi
    return LefschetzDatum(D.fiber, cycles)


def hurwitz_right(D, i):
    """(..., V_i, V_{i+1}, ...) -> (..., V_{i+1}, tau^-1_{V_{i+1}} V_i, ...)."""
    a, b = _pair_positions(D, i)
    vi, vj = D.cycles[a], D.cycles[b]
    cycles = list(D.cycles)
    cycles[a] = vj
    cycles[b] = _twisted_cycle(D, vj, vi, -1)
    return LefschetzDatum(D.fiber, cycles)


def rotate(D):
    """Cyclic shift: (V_1, V_2, ..., V_k) -> (V_2, ..., V_k, V_1)."""
    return LefschetzDatum(D.fiber, D.cycles[1:] + D.cycles[:1])


def _fresh_label(stem, used):
    """``stem`` with primes appended until ``used`` does not hold it."""
    while stem in used:
        stem += "'"
    return stem


def stabilize_label(fiber):
    """The label a scripted or searched stabilize gives its handle."""
    return _fresh_label("s%d" % (fiber.lattice.rank + 1), fiber.basis_labels)


def stabilize(D, pairings, label):
    """Attach a fiber handle and append its sphere as a new cycle.

    The sphere cycle is built once per stabilized fiber and shared by
    every datum stabilized onto it.
    """
    fiber, sphere = attach_stabilizing_handle(D.fiber, pairings, label)
    if fiber._handle_cycle is None:
        object.__setattr__(fiber, "_handle_cycle", trivial_cycle(
            fiber, sphere, stabilization_sphere=True))
    cycles = [_grow_cycle(c) for c in D.cycles]
    cycles.append(fiber._handle_cycle)
    return LefschetzDatum(fiber, cycles)


def subflexibilize(D, disk_pairings):
    """Re-twist each cycle V_i to tau^2_{S_i} V_i about a fresh handle.

    ``disk_pairings`` gives, per cycle, the intersection vector of the
    attaching disk with the original basis (or None to skip that cycle).
    Each disk must meet its own cycle exactly once; the new spheres join
    the fiber but not the cycle list.  The handle at position i is
    labelled s<i>, primed until free.
    """
    k = len(D.cycles)
    try:
        disk_pairings = list(disk_pairings)
    except TypeError:
        raise MoveError("disk pairings must be a sequence",
                        disks=disk_pairings) from None
    if len(disk_pairings) != k:
        raise MoveError("one pairing vector (or None) per cycle",
                        expected=k, got=len(disk_pairings))
    base_rank = D.fiber.lattice.rank
    fiber = D.fiber
    cycles = list(D.cycles)
    provenance = list(D.sf_spheres)
    attached = 0
    for pos, p in enumerate(disk_pairings, start=1):
        if p is None:
            continue
        p = exact_ints(p, MoveError, "disk pairings")
        if len(p) != base_rank:
            raise MoveError(
                "pairing vector length must equal the original rank",
                i=pos, expected=base_rank, got=len(p))
        label = _fresh_label("s%d" % pos, fiber.basis_labels)
        fiber, sphere = attach_stabilizing_handle(
            fiber, p + (0,) * attached, label)
        attached += 1
        lattice = fiber.lattice
        cycles = [_grow_cycle(c) for c in cycles]
        target = cycles[pos - 1]
        hits = pairing(lattice, sphere, target.klass)
        if abs(hits) != 1:
            raise MoveError(
                "attaching disk must meet its cycle exactly once",
                i=pos, pairing=hits)
        cycles[pos - 1] = VanishingCycle._derived(
            target.word.prepend(sphere, 2),
            twist_power(lattice, sphere, target.klass, 2))
        provenance.append((pos, label))
    return LefschetzDatum(fiber, cycles, sf_spheres=provenance)


def boundary_connect_sum(D1, D2):
    """Join two data: orthogonal fiber sum, cycle lists concatenated."""
    if not isinstance(D2, LefschetzDatum):
        raise MoveError("bsum argument must be a datum")
    if D1.n != D2.n:
        raise MoveError("parity mismatch", n1=D1.n, n2=D2.n)
    r1 = D1.fiber.lattice.rank
    r2 = D2.fiber.lattice.rank
    if r2 == 0 and not D2.cycles:
        return D1
    if r1 == 0 and not D1.cycles:
        return D2
    labels = list(D1.fiber.basis_labels)
    rename = {}
    for lab in D2.fiber.basis_labels:
        rename[lab] = _fresh_label(lab, labels)
        labels.append(rename[lab])
    lattice = orthogonal_sum(D1.fiber.lattice, D2.fiber.lattice)
    stab = D1.fiber.stabilizing_spheres | {
        rename[lab] for lab in D2.fiber.stabilizing_spheres}
    fiber = FiberModel(lattice, labels, stab)
    # arcs live in each summand's own disk model; the sum has none
    cycles = [_embed_cycle(c, 0, r2, keep_arc=False) for c in D1.cycles]
    cycles += [_embed_cycle(c, r1, 0, keep_arc=False) for c in D2.cycles]
    return LefschetzDatum(fiber, cycles)
