"""Built-in example data: the x1, x1_plus_cycle, and x2 catalogue entries.

These configurations are fixed catalogue conventions rather than derived
quantities: which cycles carry the stabilization-sphere flag, which basis
handles count as stabilizing, and which matching arcs realize the cycles
cannot be recomputed from the lattice data alone.  Output built from them
is marked "preset".

  x1             W(A2; e1, tw(e2)^2 e1) with the e2 handle recorded as
                 the sphere re-twisting cycle 2.
  x1_plus_cycle  x1 with the e2 sphere inserted as a third cycle; one
                 Hurwitz move then certifies the re-twisted cycle.
  x2             W(A4; e1, tw(e2)^2 e1, e2, e4), flexible after one
                 Hurwitz move (hurwitzR 2 + certify-loose 2).
"""

from . import LefweaveError
from .arcs import apply_half_twist, induced_word, standard_arc
from .certify import insert_sphere
from .fibers import FiberModel, ak_matching_fiber
from .presentation import LefschetzDatum, VanishingCycle


class PresetError(LefweaveError):
    """Raised for unknown preset names."""


def _arc_cycle(fiber, arc, stabilization_sphere=False):
    word = induced_word(fiber.arc_system, arc)
    return VanishingCycle(fiber.lattice, word, arc=arc,
                          stabilization_sphere=stabilization_sphere)


def _marked_fiber(m, handles):
    """The A_{m-1} matching fiber with the named basis handles stabilizing."""
    base = ak_matching_fiber(m, 2)
    return FiberModel(base.lattice, base.basis_labels,
                      stabilizing_spheres=handles,
                      arc_system=base.arc_system)


def _x1_cycles(fiber):
    """The a1 sphere and tw(a2)^2 a1 on a matching fiber."""
    sys = fiber.arc_system
    a1 = standard_arc(sys, 1)
    a2 = standard_arc(sys, 2)
    return (
        _arc_cycle(fiber, a1, stabilization_sphere=True),
        _arc_cycle(fiber, apply_half_twist(sys, a2, a1, power=2)),
    )


def x1():
    """W(A2; e1, tw(e2)^2 e1); cycle 2 recorded as re-twisted by e2."""
    fiber = _marked_fiber(3, ("e2",))
    return LefschetzDatum(fiber, _x1_cycles(fiber), sf_spheres=((2, "e2"),))


def x1_plus_cycle():
    """x1 with the e2 sphere added as a third cycle."""
    return insert_sphere(x1(), 2, "e2")


def x2():
    """W(A4; e1, tw(e2)^2 e1, e2, e4); one Hurwitz move certifies."""
    fiber = _marked_fiber(5, ("e2", "e4"))
    spheres = tuple(
        _arc_cycle(fiber, standard_arc(fiber.arc_system, j),
                   stabilization_sphere=True) for j in (2, 4))
    return LefschetzDatum(fiber, _x1_cycles(fiber) + spheres)


PRESETS = {
    "x1": x1,
    "x1_plus_cycle": x1_plus_cycle,
    "x2": x2,
}


def preset(name):
    """Build a named preset datum."""
    try:
        build = PRESETS[name]
    except KeyError:
        raise PresetError("unknown preset", name=name,
                          known=sorted(PRESETS))
    return build()
