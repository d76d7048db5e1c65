"""Negative and positive controls for flexibility certificates.

A flexible Weinstein domain has vanishing symplectic homology
(Bourgeois-Ekholm-Eliashberg 2012; Cieliebak-Eliashberg 2012), so the
calculus must find no certificate for a domain with SH != 0:

  * ``[e1]*m`` over ``plumbing a1 n``: T*S^{n+1} for m = 2 and the
    A_{m-1} Milnor fiber for m > 2 (Seidel 2008), whose SH contains the
    homology of a free loop space (Viterbo 1999) and is not zero;
  * boundary sums of these with each other and with x2: SH of a
    boundary sum is the product of the summands' (Cieliebak 2002), so
    a factor that is not zero keeps it from vanishing;
  * x1, and T*S^3 subflexibilized by ``subflex [[1], [1]]`` (the sf_t3s
    example before its ``flexify``): subflexible, hence not flexible,
    by the source paper.

The positives are x2, x1_plus_cycle and the datum ``flexify`` builds:
each has a certificate, and it verifies.  The ball, one flagged sphere
over ``plumbing a1 n=2``, needs no step at all.  Every search runs at
width 10^9, so no level is truncated and a miss at depth 7 is a miss at
every depth up to 7.
"""

import pytest

from lefweave.certify import (
    Certificate,
    flexify_after_handles,
    search_certificate,
    verify_certificate,
)
from lefweave.fibers import PlumbingTree, plumbing_lattice
from lefweave.presentation import LefschetzDatum, boundary_connect_sum, \
    subflexibilize, trivial_cycle
from lefweave.presets import x1, x1_plus_cycle, x2

WIDTH = 10 ** 9
DEPTH = 7


def zero_sections(m, n, flagged=False):
    """``[e1]*m`` over ``plumbing a1 n``, each cycle flagged as a
    stabilization sphere if asked."""
    fiber = plumbing_lattice(PlumbingTree.path(1, prefix="e"), n)
    return LefschetzDatum(fiber, [trivial_cycle(
        fiber, fiber.basis_sphere("e1"), stabilization_sphere=flagged)] * m)


def subflexible_tstar():
    return subflexibilize(zero_sections(2, 2), [(1,), (1,)])


# ROADMAP item 12: the loose-pair rule, as the search applies it,
# certifies these with one stabilization sphere leading both
# certifications; fixing the rule flips them
UNSOUND = pytest.mark.xfail(
    strict=True, reason="the loose-pair rule certifies it (ROADMAP item 12)")


@pytest.mark.parametrize("build", (
    pytest.param(lambda: zero_sections(2, 2), marks=UNSOUND, id="TS3"),
    pytest.param(lambda: zero_sections(2, 3), marks=UNSOUND, id="TS4"),
    pytest.param(lambda: zero_sections(3, 2), id="A2-n2"),
    pytest.param(lambda: zero_sections(3, 3), id="A2-n3"),
    pytest.param(lambda: zero_sections(4, 2), id="A3-n2"),
    pytest.param(lambda: zero_sections(4, 3), id="A3-n3"),
    pytest.param(x1, marks=UNSOUND, id="x1"),
    pytest.param(subflexible_tstar, marks=UNSOUND, id="subflex-TS3"),
    pytest.param(lambda: boundary_connect_sum(
        zero_sections(3, 2), zero_sections(2, 2)), id="A2#TS3"),
    pytest.param(lambda: boundary_connect_sum(
        zero_sections(2, 2), zero_sections(2, 2)), id="TS3#TS3"),
    pytest.param(lambda: boundary_connect_sum(
        zero_sections(3, 2), zero_sections(3, 2)), id="A2#A2"),
    pytest.param(lambda: boundary_connect_sum(
        zero_sections(3, 3), zero_sections(2, 3)), id="A2#TS4"),
    pytest.param(lambda: boundary_connect_sum(
        zero_sections(2, 3), zero_sections(2, 3)), id="TS4#TS4"),
))
def test_a_domain_with_nonzero_sh_has_no_certificate(build):
    assert search_certificate(build(), DEPTH, WIDTH) is None


def test_a_boundary_sum_with_a_flexible_summand_has_no_certificate():
    # SH(T*S^3) x SH(x2) and SH(A_2) x SH(x2) are not zero.  Depth 6
    # takes about 0.04 s and 0.01 s; depth 7 about 22 s and 340 MB, and
    # 27 s and 400 MB, too slow for these tests
    for summand in (zero_sections(2, 2), zero_sections(3, 2)):
        D = boundary_connect_sum(summand, x2())
        assert search_certificate(D, 6, WIDTH) is None


def test_the_ball_is_subcritical_with_no_step():
    cert = search_certificate(zero_sections(1, 2, flagged=True), DEPTH, WIDTH)
    assert cert == Certificate((), (), "subcritical")


@pytest.mark.parametrize("build", (x2, x1_plus_cycle), ids=("x2", "x1+cycle"))
def test_a_flexible_domain_has_a_certificate_that_verifies(build):
    D = build()
    cert = search_certificate(D, DEPTH, WIDTH)
    assert cert is not None and cert.terminal_claim == "flexible"
    assert verify_certificate(D, cert).accepted


def test_the_flexify_certificate_verifies():
    D_sf = subflexible_tstar()
    D_t, cert = flexify_after_handles(D_sf)
    result = verify_certificate(D_sf, cert)
    assert result.accepted and cert.terminal_claim == "flexible"
    assert result.final == D_t
