"""search_certificate against a reference breadth-first search.

The search returns an accepting child as soon as it builds it.  On each
level from which no later level can be truncated by the width, it also
drops every child whose unflagged cycles outnumber the steps left, since
a step flags at most one cycle, and every rotate or stabilize child with
no step to spare (the flag budget; see certify._child_steps).  Any other
child with no step to spare is dropped unless each unflagged cycle sits
directly after a stabilization sphere, cyclically: only certifications
can then finish it, and they move nothing and need a sphere lead.  The
row test checks each row's need against a breadth-first search over the
marks (0 unflagged, 1 loose, 2 sphere) alone.
The reference below is the level loop that builds every level before
it looks for an accepting node, kept here as the oracle: its results
are the results the search must give, at every depth and width, on
seeded arc data and on the x1/x2 presets.

``width_bound`` is the guard's exact bound: the number of candidate
steps of the last level's parents.  At or above it the last level
cannot be truncated, so the search filters it and makes fewer
apply_step calls.  Below it the guard holds on no level, since an
earlier level's bound is at least the last level's count, and a search
that accepts nothing builds every level as the reference does, but for
the certify_loose children the rule refuses.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lefweave import LefweaveError, certify, presets
from lefweave.arcs import apply_half_twist, induced_word, standard_arc
from lefweave.certify import Certificate, search_certificate, \
    step_certifications, terminal_claim, verify_certificate
from lefweave.fibers import ak_matching_fiber
from lefweave.presentation import LefschetzDatum, VanishingCycle, \
    stabilize_label

FIXED_WIDTHS = (1, 3, 17, 10000)


def reference_steps(D):
    """Candidate steps in canonical order, as a fresh list."""
    return candidate_steps(len(D.cycles), D.fiber.lattice.rank,
                           stabilize_label(D.fiber))


def candidate_steps(k, rank, label):
    steps = []
    if k >= 2:
        steps.append(("rotate", ()))
        for tag in ("hurwitz_left", "hurwitz_right", "certify_loose"):
            steps.extend((tag, (i,)) for i in range(1, k + 1))
    for j in range(rank):
        unit = tuple(1 if t == j else 0 for t in range(rank))
        steps.append(("stabilize", (unit, label)))
    return steps


def all_flagged(D):
    return all(c.loose_certified or c.stabilization_sphere
               for c in D.cycles)


def reference_search(D, depth, width):
    """Build every level; return (result, steps of the last parents,
    new distinct nodes per level built).

    The second value is None unless the loop reached the level before
    the last one without accepting.
    """
    seen = {D}
    frontier = [(D, (), ())]
    last_steps = None
    sizes = []
    for level in range(depth + 1):
        for datum, moves, summary in frontier:
            if all_flagged(datum):
                return (Certificate(moves, summary, terminal_claim(datum)),
                        last_steps, tuple(sizes))
        if level == depth:
            break
        if level == depth - 1:
            last_steps = sum(len(reference_steps(d)) for d, _, _ in frontier)
        grown = []
        for datum, moves, summary in frontier:
            if len(grown) >= width:
                break
            k = len(datum.cycles)
            for step in reference_steps(datum):
                try:
                    child = certify.apply_step(datum, step)
                except LefweaveError:
                    continue
                if child in seen:
                    continue
                seen.add(child)
                grown.append((child, moves + (step,),
                              summary + step_certifications(step, k)))
                if len(grown) >= width:
                    break
        if not grown:
            break
        sizes.append(len(grown))
        frontier = grown
    return None, last_steps, tuple(sizes)


def width_bound(D, depth):
    """The guard's bound for an untruncated search, or None."""
    return reference_search(D, depth, 10 ** 9)[1]


def seeded_datum(rng, m, k):
    """k cycles on the m-point disk, each a standard arc with 0-2
    half-twists, mostly of power +-1; all cycles but one are
    stabilization spheres, or for k = 3 one or two of them are."""
    fiber = ak_matching_fiber(m, 2)
    system = fiber.arc_system
    spheres = rng.sample(range(k), k - 1 if k < 3 else rng.randint(1, 2))
    cycles = []
    for position in range(k):
        arc = standard_arc(system, rng.randint(1, m - 1))
        for _ in range(rng.randint(0, 2)):
            center = standard_arc(system, rng.randint(1, m - 1))
            arc = apply_half_twist(system, center, arc,
                                   rng.choice((-2, -1, -1, 1, 1, 2)))
        cycles.append(VanishingCycle(
            fiber.lattice, induced_word(system, arc), arc=arc,
            stabilization_sphere=position in spheres))
    return LefschetzDatum(fiber, cycles)


def seeded_pool():
    """Four data per (m, k) for m = 3..5 and k = 2, 3, and one with a
    single cycle per m: those certify by stabilize, hurwitz_left and
    certify_loose, so the pool has finishes at depth 3 too."""
    rng = random.Random(20151006)
    pool = []
    for m in (3, 4, 5):
        for k in (1, 2, 2, 2, 2, 3, 3, 3, 3):
            pool.append(("m%d-k%d-%d" % (m, k, len(pool)),
                         seeded_datum(rng, m, k)))
    return pool


POOL = seeded_pool()
DATA = POOL + [(name, presets.preset(name)) for name in ("x1", "x2")]


class CountingApply:
    """Stands in for certify.apply_step and counts its calls; ``refused``
    counts the certify_loose calls the rule refuses: the search asks the
    rule's verdict first and never makes them."""

    def __init__(self):
        self.calls = self.refused = 0
        self.apply = certify.apply_step

    def __call__(self, D, step):
        self.calls += 1
        try:
            return self.apply(D, step)
        except certify.CertifyError:
            if step[0] == "certify_loose":
                self.refused += 1
            raise


class LastApply(CountingApply):
    """Also keeps the datum the last call built, None if it raised."""

    last = None

    def __call__(self, D, step):
        self.last = None
        self.last = super().__call__(D, step)
        return self.last


def counted(monkeypatch, run, *args):
    counter = CountingApply()
    monkeypatch.setattr(certify, "apply_step", counter)
    try:
        return run(*args), counter
    finally:
        monkeypatch.undo()


def check(D, depth, width, monkeypatch):
    """Compare with the reference; return the search's and the
    reference's apply_step calls and the reference's last-level steps."""
    (expected, last_steps, _), ref = counted(
        monkeypatch, reference_search, D, depth, width)
    found, searched = counted(monkeypatch, search_certificate, D, depth,
                              width)
    assert found == expected
    if found is not None:
        assert verify_certificate(D, found).accepted
    assert searched.refused == 0
    assert searched.calls <= ref.calls
    if found is None and last_steps is not None and width < last_steps:
        # the guard holds on no level (see the module docstring), so no
        # child is dropped or built past the width
        assert searched.calls == ref.calls - ref.refused
    return searched.calls, ref.calls, last_steps


@pytest.mark.parametrize("name,D", DATA, ids=[name for name, _ in DATA])
@pytest.mark.parametrize("depth", (0, 1, 2, 3))
def test_matches_reference_at_fixed_widths(name, D, depth, monkeypatch):
    for width in FIXED_WIDTHS:
        check(D, depth, width, monkeypatch)


# every (datum, depth) whose search reaches the last level
GUARDED = [(name, D, depth, bound) for name, D in DATA for depth in (1, 2, 3)
           for bound in [width_bound(D, depth)] if bound is not None]


@pytest.mark.parametrize("name,D,depth,bound", GUARDED,
                         ids=["%s-%d" % (c[0], c[2]) for c in GUARDED])
def test_matches_reference_at_the_guard_bound(name, D, depth, bound,
                                              monkeypatch):
    calls, ref_calls, last_steps = check(D, depth, bound, monkeypatch)
    assert last_steps == bound
    # the last level drops the children that cannot be flagged in time
    assert calls < ref_calls
    if bound > 1:
        check(D, depth, bound - 1, monkeypatch)
    # with room for every level the guard holds from level 1 on; at
    # depth 3 that drops children before the last level on every datum
    if depth == 3:
        assert check(D, depth, 10 ** 9, monkeypatch)[0] < calls


# depth 4 builds thousands of nodes a datum: a subset keeps it quick
DEEP = POOL[::5] + [(name, presets.preset(name)) for name in ("x1", "x2")]


@pytest.mark.parametrize("name,D", DEEP, ids=[name for name, _ in DEEP])
def test_matches_reference_at_depth_4(name, D, monkeypatch):
    for width in FIXED_WIDTHS:
        check(D, 4, width, monkeypatch)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((3, 4, 5)),
       st.sampled_from((1, 2, 3)), st.integers(0, 4),
       st.one_of(st.integers(1, 100), st.integers(1, 10 ** 4)))
def test_matches_reference_on_seeded_data(seed, m, k, depth, width):
    D = seeded_datum(random.Random(seed), m, k)
    assert search_certificate(D, depth, width) == \
        reference_search(D, depth, width)[0]


@pytest.mark.parametrize("name", ("x1", "x2"))
def test_a_width_past_sys_maxsize_is_uncapped(name):
    D = presets.preset(name)
    assert search_certificate(D, 3, 10 ** 20) == \
        search_certificate(D, 3, 10 ** 9)


def test_pool_reaches_every_kind_of_finish():
    finishes = set()
    for _, D in POOL:
        cert = search_certificate(D, 3, 10000)
        if cert is None:
            finishes.add("miss")
            continue
        # certify_loose keeps the cycle count, so the final one is the k
        # of the last step; position k wraps around the basepoint
        k = len(verify_certificate(D, cert).final.cycles)
        finishes.add("wrap" if cert.moves[-1] == ("certify_loose", (k,))
                     else "inner")
    assert finishes == {"miss", "wrap", "inner"}


def test_depth_3_builds_far_fewer_nodes(monkeypatch):
    _, D = POOL[-1]
    calls, ref_calls, last_steps = check(D, 3, 10000, monkeypatch)
    assert last_steps is not None
    assert 5 * calls < ref_calls


def test_depth_3_uncapped_builds_fewer_nodes(monkeypatch):
    # the same searches made 1,437 calls with the flag budget alone, 775
    # once rotate and stabilize children needed a spare step, 648 once an
    # unready hurwitz or certify_loose child needed one too, and 338 once
    # refused certify_loose rows make no engine call
    total = 0
    for _, D in DATA:
        total += check(D, 3, 10 ** 9, monkeypatch)[0]
    assert total == 338


def moved_marks(step, marks):
    """The marks of a rotate, hurwitz, certify_loose or stabilize child
    in the model of flags alone: a twisted cycle is unflagged, every
    other cycle keeps its mark, and stabilize appends a sphere."""
    k = len(marks)
    tag = step[0]
    if tag == "rotate":
        return marks[1:] + marks[:1]
    if tag == "stabilize":
        return marks + (2,)
    i = step[1][0]
    child = list(marks)
    lead, follow = marks[i - 1], marks[i % k]
    if tag == "hurwitz_left":
        child[i - 1], child[i % k] = 0, lead
    elif tag == "hurwitz_right":
        child[i - 1], child[i % k] = follow, 0
    else:
        child[i % k] = follow or 1
    return tuple(child)


def model_moves(marks):
    """Every child of a marks tuple: certify_loose needs a sphere lead
    and nothing more of its pair."""
    k = len(marks)
    steps = candidate_steps(k, 1, "s")
    return [moved_marks(step, marks) for step in steps
            if step[0] != "certify_loose" or marks[step[1][0] - 1] == 2]


@functools.lru_cache(maxsize=None)
def fewest_steps(marks, cap):
    """Breadth-first: the fewest model moves that leave no 0 in
    ``marks``, or cap + 1 if more than ``cap`` are needed."""
    frontier, seen = [marks], {marks}
    for steps in range(cap + 1):
        if any(0 not in m for m in frontier):
            return steps
        grown = []
        for m in frontier:
            for child in model_moves(m):
                if child not in seen:
                    seen.add(child)
                    grown.append(child)
        frontier = grown
    return cap + 1


@pytest.mark.parametrize("k", (2, 3, 4))
def test_child_steps_need_a_spare_step_for_rotate_and_stabilize(k):
    """Every row of every marks tuple at every budget up to k + 1.

    A rotate or stabilize row needs u + 1.  A hurwitz or certify_loose
    row is dropped at budget b only if the breadth-first search over
    marks needs more than b moves to finish its child, and its need is
    that search's minimum, capped at one beyond the child's unflagged
    cycles: a child that u' certifications cannot finish needs u' + 1.
    """
    table = candidate_steps(k, 3, "s4")
    for marks in itertools.product((0, 1, 2), repeat=k):
        u = marks.count(0)
        for budget in range(k + 2):
            rows = certify._child_steps(3, "s4", marks, budget)
            kept = [step for step, _ in rows]
            assert kept == [step for step in table if step in kept]
            assert all(certs == step_certifications(step, k)
                       for step, certs in rows)
            for step in table:
                if step[0] in ("rotate", "stabilize"):
                    assert (step in kept) == (u + 1 <= budget)
                elif step[0] == "certify_loose" and marks[step[1][0] - 1] < 2:
                    # the lead is no stabilization sphere: the rule refuses
                    assert step not in kept
                else:
                    child = moved_marks(step, marks)
                    fewest = fewest_steps(child, k + 1)
                    if step not in kept:
                        assert fewest > budget, (marks, step, budget)
                    assert (step in kept) == (
                        min(fewest, child.count(0) + 1) <= budget), \
                        (marks, step, budget)
            if budget == k + 1:
                assert kept == [
                    step for step in table if step[0] != "certify_loose"
                    or marks[step[1][0] - 1] == 2]


@pytest.mark.parametrize("name,D", DATA, ids=[name for name, _ in DATA])
def test_verdict_and_rule_agree(name, D):
    """The search skips a certify_loose row on the rule's verdict alone:
    the rule raises exactly when the verdict refuses, with its message
    and context, at every position of the datum and of its children."""
    children = []
    for step in reference_steps(D):
        try:
            children.append(certify.apply_step(D, step))
        except LefweaveError:
            pass
    for datum in [D] + children:
        for i in range(len(datum.cycles) + 2):
            refusal = certify._loose_pair_refusal(datum, i)
            try:
                certify.rule_loose_pair(datum, i)
            except certify.CertifyError as err:
                assert refusal == (str(err), err.context)
            else:
                assert refusal is None


# every (datum, depth) whose certificate at the benchmark's width has moves
FINISHES = [(name, D, depth) for name, D in DATA for depth in (1, 2, 3)
            for cert in [reference_search(D, depth, 10000)[0]]
            if cert is not None and cert.moves]


@pytest.mark.parametrize("name,D,depth", FINISHES,
                         ids=["%s-%d" % (c[0], c[2]) for c in FINISHES])
def test_search_stops_at_the_accepting_child(name, D, depth, monkeypatch):
    recorder = LastApply()
    monkeypatch.setattr(certify, "apply_step", recorder)
    assert search_certificate(D, depth, 10000) is not None
    assert recorder.last is not None and all_flagged(recorder.last)


# New distinct nodes per level of an uncapped reference search, up to
# the level that accepts or the depth.  Every count rests on datum and
# cycle equality: a key that drops a flag, an arc or sf_spheres merges
# nodes and moves some count.
SHAPES = (
    ("x1", 5, (7, 44, 302, 2390, 20771)),
    ("x2", 3, (13, 138)),
    ("x1_plus_cycle", 3, (9, 73)),
    ("m3-k1-0", 3, (2, 16, 122)),
    ("m3-k2-3", 3, (7, 43, 297)),
    ("m3-k3-6", 3, (9, 68, 483)),
    ("m4-k1-9", 3, (3, 27, 227)),
    ("m4-k2-10", 3, (8, 58, 488)),
    ("m4-k3-15", 3, (10, 88, 770)),
    ("m5-k1-18", 3, (4, 40, 386)),
    ("m5-k2-21", 3, (9, 73, 707)),
    ("m5-k3-24", 3, (11, 108)),
    ("m5-k3-25", 3, (11, 105, 1005)),
)
SHAPE_DATA = dict(DATA + [("x1_plus_cycle", presets.preset("x1_plus_cycle"))])


@pytest.mark.parametrize("name,depth,sizes", SHAPES,
                         ids=[name for name, _, _ in SHAPES])
def test_search_shape_is_pinned(name, depth, sizes):
    assert reference_search(SHAPE_DATA[name], depth, 10 ** 9)[2] == sizes


def test_x1_has_no_certificate_within_6_steps():
    """An exhaustive miss: no level of the search is truncated.

    A step adds at most one cycle and one basis sphere, so a node j
    steps below x1 (2 cycles over a rank-2 fiber) has at most
    1 + 3(2 + j) + 2 + j = 9 + 4j candidate steps.  Over six levels
    that bound fits in the width, so no level can be truncated, and the
    search filters every level by the flag budget, which drops only
    children that cannot be flagged within 6 steps.  Levels 1-5 are
    x1's pinned uncapped sizes, each far below the width.
    """
    width = 10 ** 9
    name, depth, sizes = SHAPES[0]
    assert (name, depth) == ("x1", 5)
    D = presets.x1()
    assert (len(D.cycles), D.fiber.lattice.rank) == (2, 2)
    assert max(sizes) < width
    bound = 1
    for j in range(depth + 1):
        bound *= 9 + 4 * j
    assert bound == 30282525 <= width
    assert search_certificate(D, depth + 1, width) is None
