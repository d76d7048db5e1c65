"""Fiber lattices built from plumbing trees, with stabilizing handles.

A plumbing tree describes a boundary-connected union of disk cotangent
bundles D*S^n, one per vertex, plumbed along edges. The construction only
needs the resulting intersection lattice: diagonal entries are the sphere
self-pairings for the parity of n, off-diagonal entries record one
transverse intersection point per edge (with its sign).

A stabilizing handle extends the Weinstein structure by one handle whose
cocore sphere pairs with the existing basis by a prescribed integer
vector; the lattice grows by one row and column and the new sphere's
label is remembered so later constructions can tell original zero-section
spheres from added ones.
"""

import weakref

from . import Immutable, LefweaveError, exact_int, exact_ints
from .arcs import ArcSystem
from .lattice import bordered, plumbed


class FiberError(LefweaveError):
    """Raised for malformed trees, pairings, or labels."""


def _distinct(labels, what):
    """set(labels), with a FiberError naming ``what`` for an unhashable one."""
    try:
        return set(labels)
    except TypeError:
        raise FiberError("%s must be hashable" % what,
                         labels=labels) from None


class PlumbingTree(Immutable):
    """A labeled forest with signed edges.

    Edges are (u, v) or (u, v, sign) with sign +-1, defaulting to +1.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        if not vertices:
            raise FiberError("plumbing tree needs at least one vertex")
        if len(_distinct(vertices, "vertex labels")) != len(vertices):
            raise FiberError("duplicate vertex labels", vertices=vertices)
        index = {v: i for i, v in enumerate(vertices)}
        parent = list(range(len(vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        normalized = []
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                sign = 1
            elif len(edge) == 3:
                u, v, sign = edge
            else:
                raise FiberError("edge must be (u, v) or (u, v, sign)",
                                 edge=edge)
            try:
                known = u in index and v in index
            except TypeError:  # an unhashable end is no vertex
                known = False
            if not known:
                raise FiberError("edge references unknown vertex", edge=edge)
            if u == v:
                raise FiberError("self-loop is not a plumbing", edge=edge)
            if sign not in (1, -1):
                raise FiberError("edge sign must be +-1", edge=edge)
            ru, rv = find(index[u]), find(index[v])
            if ru == rv:
                raise FiberError("edges form a cycle", edge=edge)
            parent[ru] = rv
            normalized.append((u, v, sign))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(normalized))

    @classmethod
    def path(cls, k, prefix="v"):
        """The A_k chain: k vertices joined in a row."""
        vertices = ["%s%d" % (prefix, i) for i in range(1, k + 1)]
        edges = [(vertices[i], vertices[i + 1]) for i in range(k - 1)]
        return cls(vertices, edges)

    def __repr__(self):
        return "PlumbingTree(%r, %r)" % (list(self.vertices),
                                         list(self.edges))


class FiberModel(Immutable):
    """An intersection lattice with named basis spheres.

    stabilizing_spheres maps each handle's label to a pairing vector:
    attach_stabilizing_handle records it against the basis existing at
    the time, presets._marked_fiber against every other basis sphere,
    and boundary_connect_sum keeps each summand's against its own basis.
    arc_system, when present, models the same fiber's matching arcs.
    ``_key`` is the fiber's share of a datum's equality key, built and
    hashed once.  It names the handles by label alone: a search builds
    every fiber it compares by attach_stabilizing_handle, whose vectors
    the Gram rows fix.
    """

    __slots__ = ("lattice", "basis_labels", "stabilizing_spheres",
                 "arc_system", "_key", "_key_hash", "_handle",
                 "_handle_cycle", "_children", "__weakref__")

    def __init__(self, lattice, basis_labels, stabilizing_spheres=None,
                 arc_system=None):
        basis_labels = tuple(basis_labels)
        if len(basis_labels) != lattice.rank:
            raise FiberError("one label per basis vector required",
                             labels=basis_labels, rank=lattice.rank)
        if len(_distinct(basis_labels, "basis labels")) != len(basis_labels):
            raise FiberError("duplicate basis labels", labels=basis_labels)
        try:
            stab = dict(stabilizing_spheres or {})
        except TypeError:  # an unhashable label
            raise FiberError("stabilizing labels must be hashable",
                             spheres=stabilizing_spheres) from None
        for label in stab:
            if label not in basis_labels:
                raise FiberError("stabilizing label is not in the basis",
                                 label=label)
        if arc_system is not None and arc_system.m - 1 > lattice.rank:
            raise FiberError("arc system larger than the lattice",
                             m=arc_system.m, rank=lattice.rank)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "basis_labels", basis_labels)
        object.__setattr__(self, "stabilizing_spheres", stab)
        object.__setattr__(self, "arc_system", arc_system)
        key = (lattice, basis_labels, frozenset(stab),
               None if arc_system is None else (arc_system.m, arc_system.n))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_key_hash", hash(key))
        # the sphere of the handle that made this fiber, if one did, and
        # the stabilize cycle on it (see presentation.stabilize)
        object.__setattr__(self, "_handle", None)
        object.__setattr__(self, "_handle_cycle", None)
        # (pairings, label) -> child fiber, see attach_stabilizing_handle
        object.__setattr__(self, "_children", None)

    def basis_sphere(self, label):
        """The SphereClass of a named basis vector."""
        try:
            i = self.basis_labels.index(label)
        except ValueError:
            raise FiberError("no basis sphere with this label", label=label)
        return self.lattice.basis_sphere(i + 1)

    def __repr__(self):
        return "FiberModel(rank=%d, labels=%r)" % (
            self.lattice.rank, list(self.basis_labels))


def plumbing_lattice(tree, n):
    """Intersection lattice of the plumbing of D*S^n along the tree."""
    n = exact_int(n, FiberError, "fiber dimension")
    if n < 1:
        raise FiberError("fiber dimension must be positive", n=n)
    index = {v: i for i, v in enumerate(tree.vertices)}
    edges = [(index[u], index[v], sign) for u, v, sign in tree.edges]
    return FiberModel(plumbed(len(tree.vertices), edges, n), tree.vertices)


def attach_stabilizing_handle(fiber, pairings, label):
    """Extend the fiber by one handle; returns (fiber', new sphere).

    The new basis sphere s satisfies <s, b_j> = pairings[j] against each
    pre-existing basis vector and has the parity-mandated self-pairing.
    The same pairings and label on the same fiber give the identical
    fiber' for as long as anything holds it: the parent keeps only weak
    references to its children, so a stabilized fiber lives no longer
    than the data built on it.
    """
    pairings = exact_ints(pairings, FiberError, "pairings")
    children = fiber._children
    if children is None:
        children = weakref.WeakValueDictionary()
        object.__setattr__(fiber, "_children", children)
    try:
        model = children.get((pairings, label))
    except TypeError:
        raise FiberError("label must be hashable", label=label) from None
    # a cached child passed the checks below when it was built
    if model is not None:
        return model, model._handle
    rank = fiber.lattice.rank
    if len(pairings) != rank:
        raise FiberError("pairing vector length must equal the rank",
                         expected=rank, got=len(pairings))
    if label in fiber.basis_labels:
        raise FiberError("label already used in this fiber", label=label)
    lattice = bordered(fiber.lattice, pairings)
    stab = dict(fiber.stabilizing_spheres)
    stab[label] = pairings
    model = FiberModel(lattice, fiber.basis_labels + (label,), stab,
                       fiber.arc_system)
    sphere = lattice.basis_sphere(rank + 1)
    object.__setattr__(model, "_handle", sphere)
    children[(pairings, label)] = model
    return model, sphere


def ak_matching_fiber(m, n):
    """The A_{m-1} chain fiber with its m-point matching arc system."""
    m, n = exact_ints((m, n), FiberError, "point count and dimension")
    if m < 2:
        raise FiberError("a matching fiber needs at least 2 points", m=m)
    if n < 1:
        raise FiberError("fiber dimension must be positive", n=n)
    system = ArcSystem(m, n)
    labels = ["e%d" % k for k in range(1, m)]
    return FiberModel(system.lattice, labels, arc_system=system)
