"""The shadow interpreter: its disagreements reject, and it stays apart.

verify_certificate replays a certificate twice, through the move engine
and through the shadow in shadow.py, and rejects when the two differ.
The tests below make the engine lie in one way at a time: each wraps
certify.rule_loose_pair, which the step table calls through the module
name, so the engine pass completes and only the shadow can object.

The shadow's own rejections, of steps the engine refuses first, are
driven through its entry points directly.  The shadow is a check only
while it shares no code with the engine; the last test reads shadow.py
and guards that.
"""

import ast
import inspect
import sys

import pytest

from lefweave import certify, presets, shadow
from lefweave.certify import Certificate, verify_certificate
from lefweave.fibers import FiberModel
from lefweave.lattice import IntLattice, SphereClass
from lefweave.presentation import LefschetzDatum, VanishingCycle

# x2's search certificate: the Hurwitz move makes (e2*, tau_e2 e1) and
# certify-loose flags the pair's follower, cycle 3
X2_CERT = Certificate(
    (("hurwitz_right", (2,)), ("certify_loose", (2,))),
    ((3, "loose_pair"),), "flexible")


def altered(cycle, klass=None, stabilization_sphere=None):
    """A loose-certified copy of cycle, with a class or flag replaced."""
    return VanishingCycle._derived(
        cycle.word, cycle.klass if klass is None else klass, arc=cycle.arc,
        stabilization_sphere=(cycle.stabilization_sphere
                              if stabilization_sphere is None
                              else stabilization_sphere),
        loose_certified=True)


def lying_rule(monkeypatch, lie):
    """Run lie(D, i, certified datum) after every certify-loose step."""
    rule = certify.rule_loose_pair
    monkeypatch.setattr(certify, "rule_loose_pair",
                        lambda D, i: lie(D, i, rule(D, i)))


def replace_cycle(datum, pos, cycle):
    cycles = list(datum.cycles)
    cycles[pos - 1] = cycle
    return LefschetzDatum(datum.fiber, cycles, sf_spheres=datum.sf_spheres)


def rejection(D, cert):
    res = verify_certificate(D, cert)
    assert not res.accepted
    prefix = "independent replay disagrees: "
    assert res.reason.startswith(prefix), res.reason
    return res.reason[len(prefix):]


def test_a_wrong_class_rejects(monkeypatch):
    def lie(D, i, out):
        cyc = out.cycles[2]
        negated = SphereClass(tuple(-c for c in cyc.klass.coords))
        return replace_cycle(out, 3, altered(cyc, klass=negated))

    lying_rule(monkeypatch, lie)
    assert rejection(presets.x2(), X2_CERT) == "class of cycle 3 differs"


def test_a_wrong_flag_rejects(monkeypatch):
    def lie(D, i, out):
        return replace_cycle(
            out, 3, altered(out.cycles[2], stabilization_sphere=True))

    lying_rule(monkeypatch, lie)
    assert rejection(presets.x2(), X2_CERT) == "flags of cycle 3 differ"


def test_an_extra_cycle_rejects(monkeypatch):
    def lie(D, i, out):
        return LefschetzDatum(out.fiber, out.cycles + (out.cycles[0],))

    lying_rule(monkeypatch, lie)
    assert rejection(presets.x2(), X2_CERT) == "cycle count differs"


def test_a_wrong_fiber_gram_rejects(monkeypatch):
    def lie(D, i, out):
        fiber = out.fiber
        gram = [list(row) for row in fiber.lattice.gram]
        # e1 and e4 are disjoint; make them meet, keeping the form symmetric
        gram[0][3] = gram[3][0] = 1
        moved = FiberModel(IntLattice(gram, fiber.lattice.n),
                           fiber.basis_labels, fiber.stabilizing_spheres,
                           fiber.arc_system)
        return LefschetzDatum(moved, out.cycles)

    lying_rule(monkeypatch, lie)
    assert rejection(presets.x2(), X2_CERT) == "fiber gram differs"


def test_an_unchecked_certification_rejects(monkeypatch):
    # x1's follower starts with tau_e2^2, which no sphere rule accepts;
    # the engine here flags it anyway, and the shadow's own rule objects
    monkeypatch.setattr(certify, "rule_loose_pair",
                        lambda D, i: replace_cycle(D, 2, altered(D.cycles[1])))
    cert = Certificate((("certify_loose", (1,)),), ((2, "loose_pair"),),
                       "flexible")
    assert rejection(presets.x1(), cert) == "shadow: head letter mismatch"


# --- the shadow's own rejections ----------------------------------------

# The engine refuses each of these steps first, so verify_certificate
# never hands them to the shadow; they are driven through _sh_apply on
# x2's raw state (4 cycles over the rank-4 A4 fiber, catalogue e2, e4).
SHADOW_REJECTIONS = (
    (("hurwitz_left", (9,)), "shadow: bad pair position"),
    (("certify_loose", (0,)), "shadow: bad pair position"),
    (("stabilize", ((1, 0), "s5")), "shadow: pairing length mismatch"),
    (("stabilize", ((1, 0, 0, 0), "e1")), "shadow: label collision"),
    (("subflex", ([None],)), "shadow: one disk per cycle"),
    (("subflex", ([(1, 0), None, None, None],)),
     "shadow: disk length mismatch"),
    (("insert_sphere", (5, "e2")), "shadow: bad insert position"),
    (("insert_sphere", (-1, "e4")), "shadow: bad insert position"),
    (("warp", ()), "shadow: unknown move tag"),
)


@pytest.mark.parametrize("step, message", SHADOW_REJECTIONS)
def test_the_shadow_rejects_a_bad_step(step, message):
    state = shadow._shadow_state(presets.x2())
    with pytest.raises(shadow.ShadowError) as err:
        shadow._sh_apply(state, step)
    assert str(err.value) == message


def test_the_shadow_rejects_an_invalid_twist_center():
    state = shadow._shadow_state(presets.x2())
    # e1 + e3 has self-pairing -4, so no Dehn twist is about it
    follow = state["cycles"][1]
    state["cycles"][1] = follow._replace(letters=(((1, 0, 1, 0), 1),))
    with pytest.raises(shadow.ShadowError) as err:
        shadow._sh_apply(state, ("hurwitz_right", (1,)))
    assert str(err.value) == "shadow: invalid twist center"


def test_the_shadow_check_rejects_an_uncertified_cycle():
    D = presets.x2()
    assert shadow._shadow_check(D, Certificate((), (), "flexible"), D) == \
        "an uncertified cycle remains"


# --- independence ------------------------------------------------------

# the move engine's kernels and lattice growth, which the shadow
# re-derives on its own
ENGINE_NAMES = {"pairing", "twist_power", "evaluate_word",
                "sphere_self_pairing", "pairing_sign", "plumbed", "bordered",
                "orthogonal_sum", "padded"}


def test_shadow_loads_no_engine_name():
    """shadow.py imports only the standard library and LefweaveError,
    and names no engine kernel."""
    tree = ast.parse(inspect.getsource(shadow))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, \
                    alias.name
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level:
                assert (node.level, node.module, names) == \
                    (1, None, ["LefweaveError"]), (node.module, names)
            else:
                assert node.module.split(".")[0] in sys.stdlib_module_names, \
                    node.module
        elif isinstance(node, ast.Name):
            assert node.id not in ENGINE_NAMES, node.id
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ENGINE_NAMES, node.attr
