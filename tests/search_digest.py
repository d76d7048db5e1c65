"""One line that pins what the search returns on a fixed set of searches.

The searches are the seed 1-3 pools of the search-arcs benchmark
workload (``perfbench/workloads.py``), 100 data each, then the x1, x2
and x1_plus_cycle presets, each at depths 2 to DEEPEST (5 by default)
and at widths 1, 3, 17, 200, 10^4 and 10^9: 7,272 searches at depth 5,
5,454 at depth 4.  The line gives the number of searches, a sha256 over
the reprs of their results in that order, the ``apply_step`` calls of
each seed's benchmark pass (its pool at depth 3 and width 10^4) and the
calls of all the searches.

Two checkouts that print the same sha256 return the same certificate,
or the same miss, on every search; a change that prunes more rows shows
as fewer calls.  The sha256 must not depend on the hash seed, since the
search's results must not.

Usage, from anywhere, standard library only (lefweave and the workloads
are imported from this checkout)::

    python tests/search_digest.py [DEEPEST]
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from lefweave import certify, presets  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
PRESETS = ("x1", "x2", "x1_plus_cycle")
WIDTHS = (1, 3, 17, 200, 10 ** 4, 10 ** 9)


def pools():
    """(seed, data) pairs: each seed's search-arcs pool, then the
    presets under seed None."""
    out = []
    for seed in SEEDS:
        workload = workloads.SearchArcs(ROOT, seed)
        workload.setup()
        out.append((seed, [datum for _, datum in workload.pool]))
    out.append((None, [presets.preset(name) for name in PRESETS]))
    return out


def searches(deepest):
    """Yield (seed, depth, width, result, apply_step calls) per search."""
    data = pools()
    calls = [0]
    apply = certify.apply_step

    def counted(D, step):
        calls[0] += 1
        return apply(D, step)

    certify.apply_step = counted
    try:
        for seed, pool in data:
            for D in pool:
                for depth in range(2, deepest + 1):
                    for width in WIDTHS:
                        before = calls[0]
                        found = certify.search_certificate(D, depth, width)
                        yield seed, depth, width, found, calls[0] - before
    finally:
        certify.apply_step = apply


def main(argv):
    deepest = int(argv[1]) if len(argv) > 1 else 5
    digest = hashlib.sha256()
    count = total = 0
    passes = dict.fromkeys(SEEDS, 0)
    for seed, depth, width, found, calls in searches(deepest):
        digest.update(repr(found).encode() + b"\n")
        count += 1
        total += calls
        if seed is not None and depth == 3 and width == 10 ** 4:
            passes[seed] += calls
    print("%d searches sha256 %s pass calls %s total calls %d" % (
        count, digest.hexdigest(),
        "/".join(str(passes[seed]) for seed in SEEDS), total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
