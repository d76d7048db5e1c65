"""The three benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned.  A workload builds a pool of inputs from
its seed in ``setup``; the benchmark runs whole passes over ``pool``.  A
pass is stratified, so every seed gives the same mix of input shapes and
only the drawn details differ.  ``check`` runs after the timed phase and
returns, per op, None or the reason the op's output is wrong.

The in-process workloads call the package through module attributes
(``certify.search_certificate``, not an imported name), so the traced
run's wrappers see every call.
"""

import json
import os
import random
import shutil
import subprocess
import sys

SEARCH_DEPTH = 3
SEARCH_WIDTH = 10000
SEARCH_POINTS = (3, 4, 5)
# Per marked-point count m: data with 2 cycles, data with 3 cycles.
SEARCH_STRATA = ((2, 12), (3, 21))

PLUMBING_RANKS = tuple(range(10, 31))
PLUMBING_DIMS = (2, 3)

EXAMPLES = ("x1", "x2", "sf_t3s")
CLI_TEMPLATES = (("subflex", 12), ("preset", 6), ("moves", 10),
                 ("search", 9))


def lefweave_modules():
    from tracer import load_modules
    return load_modules()


# --- search-arcs -------------------------------------------------------


class SearchArcs:
    """search_certificate(D, 3, 10000) on arc-carrying data plus x1."""

    name = "search-arcs"

    def __init__(self, root, seed):
        self.seed = seed
        self.mods = lefweave_modules()
        self.pool = []

    def _datum(self, rng, m, k, twisted):
        """k cycles on standard arcs of the m-point disk; ``twisted`` of
        them carry one initial half-twist letter."""
        fibers = self.mods["fibers"]
        arcs = self.mods["arcs"]
        presentation = self.mods["presentation"]
        fiber = fibers.ak_matching_fiber(m, 2)
        system = fiber.arc_system
        letters = set(rng.sample(range(k), twisted))
        cycles = []
        for position in range(k):
            arc = arcs.standard_arc(system, rng.randint(1, m - 1))
            # at most one initial half-twist generator: deeper histories,
            # squares included, send arc canonicalization into its tail
            if position in letters:
                center = arcs.standard_arc(system, rng.randint(1, m - 1))
                arc = arcs.apply_half_twist(system, center, arc,
                                            rng.choice((-1, 1)))
            cycles.append(presentation.VanishingCycle(
                fiber.lattice, arcs.induced_word(system, arc), arc=arc,
                stabilization_sphere=position == 0))
        return presentation.LefschetzDatum(fiber, cycles)

    def setup(self):
        rng = random.Random(self.seed)
        pool = [("x1", self.mods["presets"].preset("x1"))]
        # letter counts are spread evenly over each stratum, since data
        # with every cycle twisted cost the most time and memory
        for m in SEARCH_POINTS:
            for k, count in SEARCH_STRATA:
                for i in range(count):
                    pool.append(("m%d-k%d-%d" % (m, k, i),
                                 self._datum(rng, m, k, i % (k + 1))))
        rng.shuffle(pool)
        self.pool = pool
        self.mods["certify"].search_certificate(pool[0][1], 1, SEARCH_WIDTH)

    def run(self, item):
        return self.mods["certify"].search_certificate(
            item[1], SEARCH_DEPTH, SEARCH_WIDTH)

    def check(self, records):
        certify = self.mods["certify"]
        first = {}
        verdicts = {}
        problems = []
        for item, result in records:
            label, datum = item
            if label == "x1" and result is not None:
                problems.append("x1 returned a certificate")
                continue
            if label in first and first[label] != result:
                problems.append("%s: result differs between passes" % label)
                continue
            first.setdefault(label, result)
            if result is None:
                problems.append(None)
                continue
            if label not in verdicts:
                verdicts[label] = certify.verify_certificate(datum, result)
            verdict = verdicts[label]
            problems.append(None if verdict.accepted else
                            "%s: verify rejected: %s" % (label,
                                                         verdict.reason))
        return problems


# --- invariants-plumbing ---------------------------------------------


def expected_invariants(rank, n):
    """Closed form for the path plumbing A_rank with every sphere twice.

    The boundary matrix has columns e1, e1, ..., e_r, e_r: rank r with
    unit divisors, so H_n = 0 and H_{n+1} = Z^r.  The kernel is spanned
    by t_{2i-1} - t_{2i}, each the matching sphere of one (V, V) pair,
    which self-pairs to +-chi(S^{n+1}) and is orthogonal to the others:
    the form is 2*I_r at n = 3 and 0 at n = 2.
    """
    homology = tuple(
        (deg, (1 if deg == 0 else 0) + (rank if deg == n + 1 else 0), ())
        for deg in range(n + 2))
    chi = 1 + (-1) ** (n + 1) * rank
    # n = 3: the matching sphere self-pairs to +chi(S^4) = +2
    form = {2: (0, 1, None), 3: (rank, 2 ** rank, rank)}[n]
    return (n, chi, homology, form)


class InvariantsPlumbing:
    """total_space_invariants(D) on scrambled doubled path plumbings."""

    name = "invariants-plumbing"

    def __init__(self, root, seed):
        self.seed = seed
        self.mods = lefweave_modules()
        self.pool = []

    def _datum(self, rng, rank, n):
        fibers = self.mods["fibers"]
        presentation = self.mods["presentation"]
        fiber = fibers.plumbing_lattice(
            fibers.PlumbingTree.path(rank, prefix="e"), n)
        cycles = []
        for label in fiber.basis_labels:
            cycle = presentation.trivial_cycle(
                fiber, fiber.basis_sphere(label))
            cycles += [cycle, cycle]
        datum = presentation.LefschetzDatum(fiber, cycles)
        for _ in range(2 * rank):
            roll = rng.random()
            pos = rng.randint(1, len(datum.cycles))
            if roll < 0.45:
                datum = presentation.hurwitz_left(datum, pos)
            elif roll < 0.9:
                datum = presentation.hurwitz_right(datum, pos)
            else:
                datum = presentation.rotate(datum)
        return datum

    def setup(self):
        rng = random.Random(self.seed)
        order = [((rank, n), self._datum(rng, rank, n))
                 for rank in PLUMBING_RANKS for n in PLUMBING_DIMS]
        self.run(order[0])
        rng.shuffle(order)
        self.pool = order

    def run(self, item):
        return self.mods["invariants"].total_space_invariants(item[1])

    def check(self, records):
        problems = []
        for item, inv in records:
            (rank, n), _ = item
            want = expected_invariants(rank, n)
            got = (inv.n, inv.chi, inv.homology, inv.form_invariants)
            symmetry = "symmetric" if n % 2 == 1 else "antisymmetric"
            if got != want or inv.middle_symmetry != symmetry:
                problems.append("rank %d n=%d: got %r, want %r"
                                % (rank, n, got, want))
            elif len(inv.middle_form) != rank:
                problems.append("rank %d n=%d: middle form has size %d"
                                % (rank, n, len(inv.middle_form)))
            else:
                problems.append(None)
        return problems


# --- cli-scripts -----------------------------------------------------


def _unit(size, index):
    return [1 if t == index else 0 for t in range(size)]


def _ints(values):
    return "[%s]" % ", ".join(str(v) for v in values)


def _twisted(rng, rank, base, max_letters):
    """A cycle expression on e<base> whose twist centers avoid the base,
    so the base coordinate of its class stays 1."""
    text = "e%d" % base
    others = [i for i in range(1, rank + 1) if i != base]
    for _ in range(rng.randint(0, max_letters)):
        text = "tw(e%d)^%d %s" % (rng.choice(others),
                                  rng.choice((-2, -1, 1, 2)), text)
    return text


def script_subflex(rng, index):
    """Plumbing datum, optional rotate/stabilize, subflex, flexify."""
    rank, n = rng.randint(2, 5), rng.choice((2, 3))
    k = rng.randint(1, min(rank, 3))
    bases = [rng.randint(1, rank) for _ in range(k)]
    cycles = [_twisted(rng, rank, b, 2) for b in bases]
    steps = []
    if k >= 2 and rng.random() < 0.5:
        steps.append("rotate")
        bases = bases[1:] + bases[:1]
    size = rank
    sphere = rng.random() < 0.5
    if sphere:
        steps.append("stabilize %s" % _ints(
            [rng.randint(-1, 1) for _ in range(rank)]))
        size += 1
    disks = [_ints(_unit(size, b - 1)) for b in bases]
    if sphere:
        disks.append("none")
    steps += ["subflex [%s]" % ", ".join(disks), "flexify"]
    text = ("fiber p = plumbing a%d n=%d\n" % (rank, n)
            + "datum D over p = [%s]\n" % ", ".join(cycles)
            + "script sf on D {\n"
            + "".join("  %s;\n" % s for s in steps) + "}\n"
            + "verify sf\nprint invariants sf\n")
    return text, {"exit": 0, "accepted": True}


def script_preset(rng, index):
    """A catalogue preset certified by one Hurwitz move."""
    name = rng.choice(("x2", "x1_plus_cycle"))
    printed = rng.choice(("X", "flex"))
    text = ("datum X = preset %s\n" % name
            + "script flex on X {\n  hurwitzR 2;\n  certify-loose 2;\n}\n"
            + "verify flex\nprint invariants %s\n" % printed)
    return text, {"exit": 0, "accepted": True}


def script_moves(rng, index):
    """Hurwitz/rotate/stabilize/bsum on an ak or plumbing fiber.

    No step certifies anything, so verify must reject (exit 1).
    """
    if rng.random() < 0.5:
        m = rng.randint(3, 5)
        rank, n, fiber = m - 1, 2, "fiber a = ak %d n=2\n" % m
    else:
        rank, n = rng.randint(2, 4), 3
        fiber = "fiber a = plumbing a%d n=3\n" % rank
    k = rng.randint(2, 3)
    cycles = [_twisted(rng, rank, rng.randint(1, rank), 1)
              for _ in range(k)]
    extra = [_twisted(rng, rank, rng.randint(1, rank), 1)
             for _ in range(rng.randint(1, 2))]
    steps = []
    size = rank
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("hurwitzL", "hurwitzR", "rotate", "stabilize",
                           "bsum"))
        if kind in ("hurwitzL", "hurwitzR"):
            steps.append("%s %d" % (kind, rng.randint(1, k)))
        elif kind == "rotate":
            steps.append("rotate")
        elif kind == "stabilize":
            steps.append("stabilize %s" % _ints(
                [rng.randint(-1, 1) for _ in range(size)]))
            size += 1
            k += 1
        else:
            steps.append("bsum E")
            size += rank
            k += len(extra)
    text = (fiber
            + "datum D over a = [%s]\n" % ", ".join(cycles)
            + "datum E over a = [%s]\n" % ", ".join(extra)
            + "script mv on D {\n"
            + "".join("  %s;\n" % s for s in steps) + "}\n"
            + "verify mv\nprint invariants mv\n")
    return text, {"exit": 1, "accepted": False}


def script_search(rng, index):
    """A small search over an arc-free plumbing fiber.

    With no stabilization sphere no certificate fits in depth 3, so the
    search is exhaustive.  Every search script has the same shape (three
    cycles on A3), so these scripts form one group of similar cost that
    holds the op-time p90 at the same place from seed to seed.
    """
    cycles = [_twisted(rng, 3, rng.randint(1, 3), 1) for _ in range(3)]
    text = ("fiber p = plumbing a3 n=%d\n" % (2 + index % 2)
            + "datum S over p = [%s]\n" % ", ".join(cycles)
            + "print invariants S\n"
            + "search S depth=3 width=10000\n")
    return text, {"exit": "search"}


GENERATORS = {"subflex": script_subflex, "preset": script_preset,
              "moves": script_moves, "search": script_search}

# Forms that fail today.  They run once per run, outside the timed loop,
# so the timed workload has no failing op; their outcome is reported as
# cli.known_broken.failed_frac.  Each is judged by what a fixed
# program must print.
KNOWN_BROKEN = (
    ("arc",
     "fiber a = ak 4 n=2\ndatum A over a = [arc(1,2; a1), e3]\n"
     "print invariants A\n",
     # a catalogue arc is the standard edge: same datum as e1
     "fiber a = ak 4 n=2\ndatum A over a = [e1, e3]\n"
     "print invariants A\n"),
    ("second-subflex",
     "fiber p = plumbing a3 n=2\ndatum D over p = [e1, e2]\n"
     "script sf on D {\n  subflex [[1, 0, 0], none];\n"
     "  subflex [[1, 0, 0, 0], none];\n}\nprint invariants sf\n",
     None),
)


class CliScripts:
    """``lefweave run`` subprocesses, one at a time."""

    name = "cli-scripts"

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.bench_dir = os.path.join(root, "perfbench")
        self.work = os.path.join(self.bench_dir, "_work", str(os.getpid()))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # the traced run starts cli_child.py in place of lefweave.cli
        self.traced = False
        self.pool = []
        self.max_rss_kb = 0
        self.child_stats = None

    def setup(self):
        os.makedirs(self.work, exist_ok=True)
        rel = os.path.relpath(self.work, self.bench_dir)
        pool = []
        for name in EXAMPLES:
            with open(os.path.join(self.root, "tests", "golden",
                                   name + ".json"), "rb") as handle:
                golden = handle.read()
            pool.append((name, os.path.join("examples", name + ".lef"),
                         {"golden": golden}))
        rng = random.Random(self.seed)
        for kind, count in CLI_TEMPLATES:
            for i in range(count):
                text, expect = GENERATORS[kind](rng, i)
                label = "%s-%d" % (kind, i)
                with open(os.path.join(self.work, label + ".lef"), "w",
                          encoding="utf-8") as handle:
                    handle.write(text)
                pool.append((label, os.path.join(rel, label + ".lef"),
                             expect))
        self.run(pool[0])
        self.max_rss_kb = 0
        rng.shuffle(pool)
        self.pool = pool

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    def _spawn(self, path, traced):
        if traced:
            stats = os.path.join(self.work, "stats.json")
            argv = [sys.executable,
                    os.path.join(self.bench_dir, "cli_child.py"),
                    stats, "run", path]
        else:
            argv = [sys.executable, "-m", "lefweave.cli", "run", path]
        with open(os.path.join(self.work, "stderr"), "w+b") as err:
            proc = subprocess.Popen(argv, cwd=self.bench_dir, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 gives this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if traced:
            with open(stats, encoding="utf-8") as handle:
                self.child_stats = json.load(handle)
            os.remove(stats)
        return proc.returncode, out, stderr

    def run(self, item):
        return self._spawn(item[1], self.traced)

    def check(self, records):
        first = {}
        problems = []
        for item, result in records:
            label, _, expect = item
            code, out, err = result
            problems.append(_check_script(label, expect, code, out, err,
                                          first.setdefault(label, out)))
        return problems

    def probe_known_broken(self):
        """Run the forms that break today; returns (attempted, failed)."""
        failed = 0
        for label, text, twin in KNOWN_BROKEN:
            outputs = []
            for name, body in ((label, text), (label + "-twin", twin)):
                if body is None:
                    continue
                path = os.path.join(self.work, "probe-%s.lef" % name)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(body)
                outputs.append(self._spawn(
                    os.path.relpath(path, self.bench_dir), False))
            code, out, err = outputs[0]
            ok = code == 0 and b"Traceback" not in err
            if ok and twin is not None:
                ok = (_results(out) is not None
                      and _results(out) == _results(outputs[1][1]))
            failed += not ok
        return len(KNOWN_BROKEN), failed


def _results(blob):
    try:
        return json.loads(blob)["results"]
    except (ValueError, KeyError, TypeError):
        return None


def _check_script(label, expect, code, out, err, first_out):
    if b"Traceback" in err:
        return "%s: traceback: %s" % (label, err.decode(errors="replace")
                                      .strip().splitlines()[-1])
    if out != first_out:
        return "%s: output differs between repeats" % label
    if "golden" in expect:
        if code != 0 or out != expect["golden"]:
            return "%s: exit %d, output differs from the golden" % (
                label, code)
        return None
    results = _results(out)
    if results is None:
        return "%s: exit %d, stdout is not a result document: %s" % (
            label, code, err.decode(errors="replace").strip())
    want = expect["exit"]
    if want == "search":
        found = [r["found"] for r in results if r["command"] == "search"]
        want = 0 if all(found) else 1
    if code != want:
        return "%s: exit %d, want %d" % (label, code, want)
    for entry in results:
        if entry["command"] == "verify" and \
                entry["accepted"] != expect["accepted"]:
            return "%s: verify accepted=%s" % (label, entry["accepted"])
    return None


WORKLOADS = {cls.name: cls for cls in (SearchArcs, InvariantsPlumbing,
                                       CliScripts)}
