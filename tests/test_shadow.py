"""The shadow interpreter: its disagreements reject, and it stays apart.

verify_certificate replays a certificate twice, through the move engine
and through the shadow in certify.py, and rejects when the two differ.
The tests below make the engine lie in one way at a time: each wraps
certify.rule_loose_pair, which the step table calls through the module
name, so the engine pass completes and only the shadow can object.

The shadow is a check only while it shares no code with the engine; the
last test reads its definitions from the source and guards that.
"""

import ast
import inspect

from lefweave import certify, presets
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


# --- independence ------------------------------------------------------

# what the shadow may use of certify.py besides its own definitions
SHADOW_IMPORTS = {"CertifyError", "namedtuple"}


def shadow_section():
    """certify.py's module-level names, and its top-level definitions
    from _ShadowCycle through _shadow_check."""
    tree = ast.parse(inspect.getsource(certify))
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    body = tree.body
    start = body.index(names["_ShadowCycle"])
    stop = body.index(names["_shadow_check"])
    return set(names), body[start:stop + 1]


def test_shadow_loads_no_engine_name():
    module_names, section = shadow_section()
    own = set()
    for node in section:
        if isinstance(node, ast.Assign):
            own.update(t.id for t in node.targets)
        else:
            own.add(node.name)
    assert {"_shadow_state", "_dot", "_twist", "_sh_apply"} <= own
    assert SHADOW_IMPORTS <= module_names
    allowed = own | SHADOW_IMPORTS
    for node in section:
        loaded = {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        leaks = (loaded & module_names) - allowed
        assert not leaks, "%s uses %s" % (getattr(
            node, "name", "_ShadowCycle"), sorted(leaks))

