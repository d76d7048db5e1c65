"""Frozen middle intersection forms: exact matrices, basis and all.

The expected values were recorded from the per-entry middle-form loop
while its diagonal was still written as 2 * (+-1 or 0); the n = 1 and
n = 5 cases whose forms meet an off-diagonal thimble pairing were
re-recorded when the thimble sign -1 at n = 1 mod 4 came in.  They pin the
matrix that any rewrite of the form (such as two matrix products
K^T . Q2 . K) must reproduce: a change to the kernel basis, the
thimble pairings, their (anti)symmetric extension or the diagonal
shows up here as a different matrix.

Two seeded families over path plumbings at n = 1..5:

  * doubled: every basis sphere listed twice, scrambled by Hurwitz and
    rotate moves; large forms are pinned by the sha256 of their repr.
  * twisted: a few cycles with random twist words; the small forms,
    nonzero at even n too, are pinned literally.

plus the three presets.
"""

import hashlib
import random

import pytest

from lefweave import presets
from lefweave.fibers import PlumbingTree, plumbing_lattice
from lefweave.invariants import middle_intersection_form
from lefweave.lattice import TwistWord
from lefweave.presentation import (
    LefschetzDatum,
    VanishingCycle,
    hurwitz_left,
    hurwitz_right,
    rotate,
    trivial_cycle,
)


def _path_fiber(rank, n):
    return plumbing_lattice(PlumbingTree.path(rank, prefix="e"), n)


def doubled_datum(rank, n, seed):
    fiber = _path_fiber(rank, n)
    cycles = []
    for label in fiber.basis_labels:
        cycle = trivial_cycle(fiber, fiber.basis_sphere(label))
        cycles += [cycle, cycle]
    D = LefschetzDatum(fiber, cycles)
    rng = random.Random(seed)
    moves = (hurwitz_left, hurwitz_right, lambda D, _: rotate(D))
    for _ in range(3 * rank):
        pos = rng.randint(1, len(D.cycles))
        D = rng.choice(moves)(D, pos)
    return D


def twisted_datum(rank, n, seed):
    rng = random.Random(seed)
    fiber = _path_fiber(rank, n)
    basis = [fiber.basis_sphere(lab) for lab in fiber.basis_labels]
    cycles = []
    for _ in range(rank + 3):
        letters = tuple((rng.choice(basis), rng.choice((-1, 1)))
                        for _ in range(rng.randint(0, 4)))
        word = TwistWord(letters, rng.choice(basis))
        cycles.append(VanishingCycle(fiber.lattice, word))
    return LefschetzDatum(fiber, tuple(cycles))


DOUBLED = [
    ((1, 3), "292963450e8e124f7dea419240b30664d8990359c85e82ca77b84157ded82a6d"),
    ((1, 7), "5bba9bcc2ca2030d303d1a4276e726a7ab0325be9564405ce974f03d4860788f"),
    ((1, 12), "5f25c47dc811cced00afbdc04317e97d8fb603be54f9cdfdac688069205b10b0"),
    ((2, 3), "116427b776deafb7bf0e66eedef11860ea3d90ba120211b073eabd8d48fc7d2d"),
    ((2, 7), "f1ae0a4a0567251cb57576f0d77b295401e57eb57d81707412da4e2bbff15c12"),
    ((2, 12), "b176b021150d5fb68d188357028326a040d4e6bc5861ddb5e3f79c22aaf7343a"),
    ((3, 3), "883a3c6de0db434c67ca7d31d2da059ecc00039d1b836c09061ac8f571e71e28"),
    ((3, 7), "6decd805d233ac0cd0646a8b61a86f2020cebb94db53b722a3fde23185ad668e"),
    ((3, 12), "0f0f150bd471bfc51eb7bafc28962f491e6fbdc4e98c30a4c47020a8b456b2c4"),
    ((4, 3), "116427b776deafb7bf0e66eedef11860ea3d90ba120211b073eabd8d48fc7d2d"),
    ((4, 7), "f1ae0a4a0567251cb57576f0d77b295401e57eb57d81707412da4e2bbff15c12"),
    ((4, 12), "b176b021150d5fb68d188357028326a040d4e6bc5861ddb5e3f79c22aaf7343a"),
    ((5, 3), "5fbc14dc1a1063e6b6fecdf8e98a56e698a855899045c843d4be79c7dbd83296"),
    ((5, 7), "f8eab87b89011b650cd7ca27743ec6cb3cfc1c825058b96e8b4f94a9ef76074b"),
    ((5, 12), "0f913fca686391ca8be8ad4bd50593e9370394c8bdcd472db246a7a46a9d5e26"),
]


@pytest.mark.parametrize("n,rank,digest", [(n, r, d) for (n, r), d in DOUBLED],
                         ids=["n%d-a%d" % key for key, _ in DOUBLED])
def test_doubled_plumbing_form_frozen(n, rank, digest):
    form = middle_intersection_form(doubled_datum(rank, n, 100 * n + rank))
    assert len(form) == rank
    assert hashlib.sha256(repr(form).encode()).hexdigest() == digest


TWISTED = [
    ((1, 2), ((-2, 2, 1), (2, -8, -4), (1, -4, -4))),
    ((1, 4), ((-2, 0, 0), (0, -2, 0), (0, 0, -2))),
    ((2, 2), ((0, 0, 0), (0, 0, -1), (0, 1, 0))),
    ((2, 4), ((0, 1, 0, 0), (-1, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0))),
    ((3, 2), ((2, 1, 1), (1, 2, 0), (1, 0, 2))),
    ((3, 4), ((4, 0, 2), (0, 2, 3), (2, 3, 8))),
    ((4, 2), ((0, 1, 1), (-1, 0, -1), (-1, 1, 0))),
    ((4, 4), ((0, -1, 0), (1, 0, 0), (0, 0, 0))),
    ((5, 2), ((-8, 3, 3), (3, -2, -1), (3, -1, -2))),
    ((5, 4), ((-8, 2, 2), (2, -2, -1), (2, -1, -2))),
]


@pytest.mark.parametrize("n,rank,form", [(n, r, f) for (n, r), f in TWISTED],
                         ids=["n%d-a%d" % key for key, _ in TWISTED])
def test_twisted_form_frozen(n, rank, form):
    assert middle_intersection_form(twisted_datum(rank, n, 10 * n + rank)) \
        == form


def test_preset_forms_frozen():
    assert {name: middle_intersection_form(presets.preset(name))
            for name in presets.PRESETS} == {
        "x1": ((0,),), "x1_plus_cycle": ((0,),), "x2": ((0,),)}
