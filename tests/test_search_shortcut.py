"""search_certificate against a reference breadth-first search.

The search returns an accepting child as soon as it builds it.  On each
level from which no later level can be truncated by the width, it also
drops every child whose unflagged cycles outnumber the steps left, since
a step flags at most one cycle, every rotate child with fewer than two
steps to spare, every stabilize child with no step to spare, and a
stabilize child of a parent with two or more cycles with only one (the
flag budget; see certify._child_steps).  Any other child with no step
to spare is dropped unless each unflagged cycle sits directly after a
stabilization sphere, cyclically: only certifications can then finish
it, and they move nothing and need a sphere lead; a hurwitz child with
no step to spare is dropped too when the loose-pair rule refuses one of
its unflagged cycles.  The row test checks each
row's need against a breadth-first search over the marks (0 unflagged,
1 loose, 2 sphere) alone; the spare-step oracle checks the rotate and
stabilize needs against a reference search from the built child, and
the tight-row oracle checks the hurwitz verdict against the built child.
The reference below is the level loop that builds every level before
it looks for an accepting node, kept here as the oracle: its results
are the results the search must give, at every depth and width, on
seeded arc data and on the x1/x2 presets.

certify._guard is the one owner of the guard: whether no level within
the steps left can be truncated, so that a level may be filtered.  The
guard oracle checks that claim on every level of an uncapped reference
search.  ``check`` records the guard's verdicts: a search that accepts
nothing and on which the guard held on no level builds every level as
the reference does, but for the certify_loose children the rule
refuses.  The premise test checks the count the guard's verdict rests
on, asking certify._guard itself: on one node, it counts at least the
node's candidate steps, and at least as many for each child as the
child with the most has.
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
from lefweave.fibers import FiberModel, PlumbingTree, ak_matching_fiber, \
    plumbing_lattice
from lefweave.lattice import IntLattice, SphereClass, TwistWord
from lefweave.presentation import LefschetzDatum, VanishingCycle, \
    stabilize_label, trivial_cycle

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


def entry(D, moves=(), summary=()):
    """A (datum, marks, moves, summary) frontier entry, as the search
    hands it to certify._guard."""
    return D, tuple(2 if c.stabilization_sphere else 1 if c.loose_certified
                    else 0 for c in D.cycles), moves, summary


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
        grown = grow(frontier, seen, width)
        if not grown:
            break
        sizes.append(len(grown))
        frontier = grown
    return None, last_steps, tuple(sizes)


def grow(frontier, seen, width):
    """The next level: the frontier's unseen children in canonical
    order, up to ``width`` of them, each added to ``seen``."""
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
    return grown


def width_bound(D, depth):
    """The candidate steps of an uncapped search's last parents, or
    None if the search does not reach them."""
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


def refused_centre():
    """A sphere-flagged e1 + e3 over ``plumbing a3 n=2``, then e1.  The
    sphere's self-pairing is -4, so hurwitz refuses it as a twist centre
    and the search builds a child the engine refuses."""
    fiber = plumbing_lattice(PlumbingTree.path(3, prefix="e"), 2)
    e1 = fiber.basis_sphere("e1")
    centre = SphereClass(tuple(
        a + b for a, b in zip(e1.coords, fiber.basis_sphere("e3").coords)))
    return LefschetzDatum(fiber, (
        trivial_cycle(fiber, centre, stabilization_sphere=True),
        trivial_cycle(fiber, e1)))


def cancelled_head():
    """The spheres e2 and e1 over ``ak 3 n=2``, then tw(e1)^-1 tw(e2) e1,
    whose class is e2.  hurwitz_left 2 cancels that cycle's head letter:
    the twisted cycle tw(e2) e1 has class e1 + e2 and follows the e2
    sphere, so the rule certifies the pair, though e2 meets the target's
    class e2 twice."""
    fiber = ak_matching_fiber(3, 2)
    e1, e2 = fiber.basis_sphere("e1"), fiber.basis_sphere("e2")
    return LefschetzDatum(fiber, (
        trivial_cycle(fiber, e2, stabilization_sphere=True),
        trivial_cycle(fiber, e1, stabilization_sphere=True),
        VanishingCycle(fiber.lattice, TwistWord(((e1, -1), (e2, 1)), e1))))


POOL = seeded_pool()
DATA = POOL + [(name, presets.preset(name)) for name in ("x1", "x2")]
COMPARED = DATA + [("refused-centre", refused_centre())]
TIGHT = DATA + [("cancelled-head", cancelled_head())]


class CountingApply:
    """Stands in for certify.apply_step and counts its calls; ``refused``
    counts the certify_loose calls the rule refuses: the search asks the
    rule's verdict first and never makes them.  ``guard`` stands in for
    certify._guard, and ``guarded`` says whether it held on any level."""

    def __init__(self):
        self.calls = self.refused = 0
        self.guarded = False
        self.apply = certify.apply_step
        self.real_guard = certify._guard

    def guard(self, frontier, left, width):
        held = self.real_guard(frontier, left, width)
        self.guarded = self.guarded or held
        return held

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
    monkeypatch.setattr(certify, "_guard", counter.guard)
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
    if found is None and not searched.guarded:
        # the guard held on no level, so no child is dropped or built
        # past the width
        assert searched.calls == ref.calls - ref.refused
    return searched.calls, ref.calls, last_steps


@pytest.mark.parametrize("name,D", COMPARED,
                         ids=[name for name, _ in COMPARED])
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
    # the last parents' candidate steps fit in the width, so _guard holds
    # there and the last level drops the children that cannot be flagged
    # in time
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


def reference_levels(D, depth):
    """Levels 0 to ``depth`` of an uncapped reference search, built past
    an accepting level too."""
    seen, levels = {D}, [[(D, (), ())]]
    for _ in range(depth):
        levels.append(grow(levels[-1], seen, 10 ** 9))
    return levels


def guard_verdicts(D, depth):
    """The guard oracle: wherever certify._guard holds on a level L of an
    uncapped reference search with ``left`` levels to go, at a width the
    search uses or at the largest level within reach or one below it,
    every level from L + 1 to L + left has at most ``width`` nodes.
    Levels past an accepting one are built too.  Return the number of
    verdicts that held."""
    levels = reference_levels(D, depth)
    held = 0
    for L in range(depth):
        frontier = [entry(*node) for node in levels[L]]
        for left in range(1, depth - L + 1):
            most = max(len(level) for level in levels[L + 1:L + left + 1])
            for width in {*FIXED_WIDTHS, most - 1, most} - {-1, 0}:
                if certify._guard(frontier, left, width):
                    assert most <= width, (L, left, width)
                    held += 1
    return held


@pytest.mark.parametrize("name,D", COMPARED,
                         ids=[name for name, _ in COMPARED])
def test_guard_holds_only_where_no_level_can_be_truncated(name, D):
    assert guard_verdicts(D, 3) > 0


# the seeded data of the guard oracle: seed, marked points, cycles, depth
GUARD_SEEDS = (st.integers(0, 2 ** 32 - 1), st.sampled_from((3, 4, 5)),
               st.sampled_from((1, 2, 3)), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(*GUARD_SEEDS)
def test_guard_holds_only_where_no_level_can_be_truncated_on_seeded_data(
        seed, m, k, depth):
    guard_verdicts(seeded_datum(random.Random(seed), m, k), depth)


def guard_premises(D, depth):
    """The guard's premises, asked of certify._guard itself on each
    parent P of the uncapped reference levels: on the one-node frontier
    P, the guard's count of P's children is at least P's c candidate
    steps, and its count of their children at least c times the most
    candidate steps m of any child.  So it cannot hold at width c - 1
    with one level to go, nor at c * m - 1 with two.  A sharper count
    passes; one that misses a row does not.  Return the parents
    checked."""
    parents = 0
    for level in reference_levels(D, depth)[:-1]:
        for P, _, _ in level:
            steps = reference_steps(P)
            c, m = len(steps), 0
            for step in steps:
                try:
                    child = certify.apply_step(P, step)
                except LefweaveError:
                    continue
                m = max(m, len(reference_steps(child)))
            assert not certify._guard([entry(P)], 1, c - 1), P
            assert not certify._guard([entry(P)], 2, c * m - 1), P
            parents += 1
    return parents


@pytest.mark.parametrize("name,D", DATA, ids=[name for name, _ in DATA])
def test_guard_counts_every_candidate_step(name, D):
    assert guard_premises(D, 3) > 1


@settings(max_examples=60, deadline=None)
@given(*GUARD_SEEDS)
def test_guard_counts_every_candidate_step_on_seeded_data(seed, m, k,
                                                          depth):
    guard_premises(seeded_datum(random.Random(seed), m, k), depth)


def test_guard_on_a_frontier_with_no_steps_returns_at_once():
    """One cycle over a rank-0 fiber has no candidate step and so no
    child: neither the guard nor the search may loop over the depth,
    whose cost grows linearly with it."""
    fiber = FiberModel(IntLattice((), 2), ())
    D = LefschetzDatum(fiber, (trivial_cycle(fiber, SphereClass(())),))
    assert certify._guard([entry(D)], 10 ** 18, 10)
    assert search_certificate(D, 10 ** 9, 10) is None


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
    # unready hurwitz or certify_loose child needed one too, 338 once
    # refused certify_loose rows make no engine call, 192 once tight
    # hurwitz rows the rule refuses make none, 158 once the verdict
    # judged the twisted cycle by its own class, cancelled head letters
    # included, 98 once a stabilize child of a parent with two or more
    # cycles needed a second spare step, and 68 once a rotate child
    # needed one too
    total = 0
    for _, D in DATA:
        total += check(D, 3, 10 ** 9, monkeypatch)[0]
    assert total == 68


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


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_child_steps_need_a_spare_step_for_rotate_and_stabilize(k):
    """The exact need of every row of every marks tuple.

    The rows are the table's steps in canonical order, less the
    certify_loose steps whose lead is no stabilization sphere; at k = 1
    they are the stabilize steps alone.  A rotate row needs u + 2, and a
    stabilize row u + 1 + (k >= 2).  Rotate only relabels the cyclic
    positions, so with u + 1 steps left its child's one move besides u
    certifications is a hurwitz or certify_loose move the parent makes
    re-indexed, a rotate the parent skips, or a stabilize whose sphere
    no certification uses, and the parent finishes a level sooner.

    The stabilize child's new sphere s has an empty word and no letter
    is about it, so with u + 1 steps left its one move besides u
    certifications either avoids s, and the parent finishes a level
    sooner; or twists s, which leaves one unflagged cycle too many; or
    twists a cycle about s, and the rule refuses the copy: hurwitz_right
    gives its letter exponent -1, and hurwitz_left leaves s after it.  At
    k = 1 the wrap puts s right before the copy, so the need stays u + 1
    there.  A hurwitz or certify_loose row needs the fewest moves of the
    breadth-first search over marks that finish its child, capped at one
    beyond the child's unflagged cycles: a child that u' certifications
    cannot finish needs u' + 1.  The spare-step oracle checks the rotate
    and stabilize needs against built children.
    """
    table = candidate_steps(k, 3, "s4")
    for marks in itertools.product((0, 1, 2), repeat=k):
        u = marks.count(0)
        rows = certify._child_steps(3, "s4", marks)
        # the rule refuses a certify_loose step whose lead is no sphere
        assert [step for step, _, _ in rows] == [
            step for step in table if step[0] != "certify_loose"
            or marks[step[1][0] - 1] == 2]
        for step, certs, need in rows:
            assert certs == step_certifications(step, k)
            if step[0] == "rotate":
                assert need == u + 2, (marks, step)
            elif step[0] == "stabilize":
                assert need == u + 1 + (k >= 2), (marks, step)
            else:
                child = moved_marks(step, marks)
                assert need == min(fewest_steps(child, k + 1),
                                   child.count(0) + 1), (marks, step)


def fewest_finish(D, cap):
    """The fewest steps in which an uncapped reference breadth-first
    search from D reaches an accepting node, or None if that takes more
    than ``cap``.  A node with more unflagged cycles than steps left is
    not kept, since a step flags at most one cycle: it, and any node
    equal to it that ``seen`` then shadows, cannot finish in time."""
    seen, level = {D}, [(D, (), ())]
    for left in range(cap, -1, -1):
        if any(all_flagged(datum) for datum, _, _ in level):
            return cap - left
        if not left:
            return None
        level = [node for node in grow(level, seen, 10 ** 9)
                 if entry(node[0])[1].count(0) < left]


def spare_step_finishes(D, depth):
    """The spare-step oracle: on every node P of the uncapped reference
    levels 0 to ``depth`` and every rotate or stabilize row of P with its
    need N, if the reference finishes the built child within N - 1
    steps, it finishes P within as many.  So where the search drops the
    child, with N - 1 steps left, it accepts a node a level before the
    child could finish.  Return the (tag, P's cycles) of the rows whose
    child finishes within N - 1 steps."""
    finishes = set()
    for level in reference_levels(D, depth):
        for P, _, _ in level:
            marks = entry(P)[1]
            for step, _, need in certify._child_steps(
                    P.fiber.lattice.rank, stabilize_label(P.fiber), marks):
                if step[0] not in ("rotate", "stabilize"):
                    continue
                try:
                    child = certify.apply_step(P, step)
                except LefweaveError:
                    continue
                steps = fewest_finish(child, need - 1)
                if steps is not None:
                    assert fewest_finish(P, steps) is not None, (P, step)
                    finishes.add((step[0], len(marks)))
    return finishes


def test_spare_step_rows_never_finish_before_their_parent():
    """Over DATA, levels 0 and 1; rotate and stabilize children with two
    or more cycles in the parent finish within their need less one, so
    the oracle's implication is met, not vacuous.  A rotate row is
    checked at N - 1 = u + 1 steps, where its child makes one move
    besides its certifications."""
    finishes = set().union(*(spare_step_finishes(D, 1) for _, D in DATA))
    assert {tag for tag, k in finishes if k >= 2} == {"rotate", "stabilize"}


@settings(max_examples=60, deadline=None)
@given(*GUARD_SEEDS[:3])
def test_spare_step_rows_never_finish_before_their_parent_on_seeded_data(
        seed, m, k):
    spare_step_finishes(seeded_datum(random.Random(seed), m, k), 0)


@pytest.mark.parametrize("name,D", DATA, ids=[name for name, _ in DATA])
def test_verdict_and_rule_agree(name, D):
    """The search skips a certify_loose row on the rule's verdict alone:
    the rule raises exactly when the verdict refuses, with its message
    and context, at every position 1..k of the datum and of its
    children with k >= 2 cycles.  Only the rule checks the position and
    the cycle count (tests/test_certify.py pins those refusals)."""
    children = []
    for step in reference_steps(D):
        try:
            children.append(certify.apply_step(D, step))
        except LefweaveError:
            pass
    for datum in [d for d in [D] + children if len(d.cycles) >= 2]:
        for i in range(1, len(datum.cycles) + 1):
            refusal = certify._loose_pair_refusal(datum, i)
            try:
                certify.rule_loose_pair(datum, i)
            except certify.CertifyError as err:
                assert refusal == (str(err), err.context)
            else:
                assert refusal is None


def tight_verdicts(D, depth):
    """The tight-row oracle: on every parent P of the uncapped reference
    levels and every hurwitz row of P with its need, the search's verdict
    certify._refused_tight_child equals building the child and finding
    exactly ``need`` unflagged cycles, one of which the rule refuses,
    whether the new letter merged into the target's head or cancelled
    it.  A row the engine refuses builds nothing either way.  Return the
    letter branches met on children with exactly ``need`` unflagged
    cycles: "merged" where the twisted cycle's head letter is about the
    center, "cancelled" where it is not."""
    branches = set()
    for level in reference_levels(D, depth)[:-1]:
        for P, _, _ in level:
            marks, k = entry(P)[1], len(P.cycles)
            for step, _, need in certify._child_steps(
                    P.fiber.lattice.rank, stabilize_label(P.fiber), marks):
                if step[0] not in ("hurwitz_left", "hurwitz_right"):
                    continue
                try:
                    child = certify.apply_step(P, step)
                except LefweaveError:
                    continue
                a, b = step[1][0] - 1, step[1][0] % k
                at, other = (a, b) if step[0] == "hurwitz_left" else (b, a)
                head = child.cycles[at].word.letters[:1]
                merged = bool(head) and \
                    head[0][0].coords == child.cycles[other].klass.coords
                unflagged = [j for j, c in enumerate(child.cycles)
                             if not (c.loose_certified
                                     or c.stabilization_sphere)]
                exact = len(unflagged) == need
                refused = exact and any(
                    certify._loose_pair_refusal(child, j or k) is not None
                    for j in unflagged)
                verdict = certify._refused_tight_child(P, marks, step, need)
                assert verdict == refused, (P, step)
                if exact:
                    branches.add("merged" if merged else "cancelled")
    return branches


@pytest.mark.parametrize("name,D", TIGHT, ids=[name for name, _ in TIGHT])
def test_tight_hurwitz_verdict_matches_the_built_child(name, D):
    tight_verdicts(D, 3)


def test_tight_hurwitz_verdicts_reach_both_letter_branches():
    assert set().union(*(tight_verdicts(D, 3) for _, D in DATA)) == {
        "merged", "cancelled"}


@settings(max_examples=60, deadline=None)
@given(*GUARD_SEEDS)
def test_tight_hurwitz_verdict_matches_the_built_child_on_seeded_data(
        seed, m, k, depth):
    tight_verdicts(seeded_datum(random.Random(seed), m, k), depth)


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
    assert certify._guard([entry(D)], depth + 1, width)
    assert search_certificate(D, depth + 1, width) is None
