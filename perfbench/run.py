"""The lefweave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lefweave checkout (it needs ``src/lefweave`` and
``tests/golden``).  NAME is one of the workloads in BENCHMARK.json, or
``all`` to run each in turn.  One caller, one process, no threads: each
workload is a closed loop that starts the next op when the previous one
has returned, for at least S seconds and at least 100 ops, in whole
passes over its seeded input pool.

With ``--trace 0`` it reports the end-to-end metrics: set-up time (the
median of several fresh-process set-ups), op time p50/p90, ops per
second, peak RSS, and the failed share.  With ``--trace 1`` it runs the
first third of the time untraced, then the same ops again with every
public lefweave function wrapped (see tracer.py), and reports the
per-layer metrics named in BENCHMARK.json plus the tracing overhead.

Every op's output is checked after the timed phase.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The
exit status is 0 when every check passed, 1 when one failed, and 2 when
the benchmark could not run (for instance, no lefweave sources).
Results, run metadata and, when traced, spans go to perfbench/_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")

MIN_OPS = 100
SETUP_SAMPLES = 5

# Per-layer metric groups: name -> the wrapped functions it sums.
GROUPS = {
    "lattice.SphereClass.init": ("lattice.SphereClass.__init__",),
    "lattice.hash": ("lattice.SphereClass.__hash__",
                     "lattice.TwistWord.__hash__",
                     "lattice.IntLattice.__hash__"),
    "arcs.canonical": ("arcs.MatchingArc.canonical",),
    "presentation.hurwitz": ("presentation.hurwitz_left",
                             "presentation.hurwitz_right"),
    "presentation.VanishingCycle.init": (
        "presentation.VanishingCycle.__init__",),
    "presentation.datum_hash": ("presentation.LefschetzDatum.__hash__",),
    "presentation.datum_eq": ("presentation.LefschetzDatum.__eq__",),
    "fibers.build": ("fibers.plumbing_lattice", "fibers.ak_matching_fiber"),
}
LAYERS = ("lattice", "arcs", "fibers", "presentation", "invariants",
          "certify", "presets", "dsl", "cli")

clock = time.perf_counter


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def sources_present():
    return (os.path.isfile(os.path.join(SRC, "lefweave", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "tests", "golden")))


# --- run metadata ------------------------------------------------------


def git_sha():
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lefweave")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def metadata(args, ops):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "ops": ops,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "src_sha256": source_digest()}


# --- speed calibration --------------------------------------------------
#
# On a shared 2-vCPU Linux VM (Python 3.11.7) the CPU speed drifted by up
# to half within seconds under other tenants' load, and process CPU time
# drifted with it.  Before
# every op the benchmark times a fixed slice of object-heavy Python and
# reports each op's wall time scaled to the speed at which that slice
# takes REFERENCE_S: time x REFERENCE_S / (median of the nearest five
# slices).  Raw wall times are kept in the result file.

REFERENCE_S = 0.001


def calibration_kernel():
    table = {}
    for i in range(2000):
        key = (i, i * 7 % 13, (i, i + 1))
        table[key] = hash(key) ^ i
    return len(table)


def calibrate():
    start = clock()
    calibration_kernel()
    return clock() - start


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU, so the
    calibration measures the CPU the measured code runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def speed_scale(samples=5):
    return REFERENCE_S / statistics.median(calibrate()
                                           for _ in range(samples))


# --- the op loop -------------------------------------------------------


class OpLog:
    """Ops in run order: (item, result, error), wall time, calibration."""

    def __init__(self):
        self.records, self.times, self.cals = [], [], []

    def run(self, items, run_op):
        for item in items:
            self.cals.append(calibrate())
            start = clock()
            try:
                result, error = run_op(item), None
            except Exception as exc:  # one failed op must not end the run
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            self.times.append(clock() - start)
            self.records.append((item, result, error))

    def scaled(self):
        """Each op's wall time at the reference speed."""
        cals = self.cals
        return [t * REFERENCE_S / statistics.median(cals[max(0, i - 2):i + 3])
                for i, t in enumerate(self.times)]


def timed_loop(workload, seconds, run_op, min_ops=MIN_OPS):
    """Whole passes until both the time and the op floor are reached."""
    log = OpLog()
    start = clock()
    while clock() - start < seconds or len(log.records) < min_ops:
        log.run(workload.pool, run_op)
    return log, clock() - start


def check(workload, log):
    """Failure reasons, one per op that raised or returned a wrong output."""
    ok = [(item, result) for item, result, error in log.records
          if error is None]
    reasons = iter(workload.check(ok))
    failures = []
    for _, _, error in log.records:
        reason = error if error is not None else next(reasons)
        if reason is not None:
            failures.append(reason)
    return failures


def make_workload(name, seed):
    from workloads import WORKLOADS
    return WORKLOADS[name](ROOT, seed)


def close(workload):
    getattr(workload, "close", lambda: None)()


# --- set-up time -------------------------------------------------------


def setup_only(args):
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        print("READY", flush=True)
    finally:
        close(workload)
    return 0


def time_setup(args):
    """Wall time from process start to the first op, in a fresh process;
    returns (raw seconds, seconds at the reference speed)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    before = speed_scale(3)
    start = clock()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"READY":
        raise RuntimeError("set-up failed in a fresh process")
    return elapsed, elapsed * (before + speed_scale(3)) / 2


# --- untraced run: end-to-end metrics ----------------------------------


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, times, ops, rss_kb, failures, rss_of):
    return {
        "setup_s": (statistics.median(setups), "s",
                    "n=%d set-ups" % len(setups)),
        "op_p50_s": (statistics.median(times), "s", "n=%d ops" % ops),
        "op_p90_s": (quantile(times, 90), "s", "n=%d ops" % ops),
        "ops_per_s": (ops / sum(times), "1/s",
                      "n=%d ops in %.2f s" % (ops, sum(times))),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", rss_of),
        "failed_frac": (len(failures) / ops, "ratio",
                        "%d of %d ops" % (len(failures), ops)),
    }


def run_untraced(args):
    setups = [time_setup(args) for _ in range(SETUP_SAMPLES)]
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        log, wall = timed_loop(workload, args.seconds, workload.run)
        if args.workload == "cli-scripts":
            rss_kb = workload.max_rss_kb
            rss_of = "max of n=%d children" % len(log.records)
            broken = workload.probe_known_broken()
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rss_of = "n=1 process"
            broken = None
        failures = check(workload, log)
    finally:
        close(workload)
    ops = len(log.records)
    values = end_to_end([s for _, s in setups], log.scaled(), ops, rss_kb,
                        failures, rss_of)
    raw = end_to_end([r for r, _ in setups], log.times, ops, rss_kb,
                     failures, rss_of)
    notes = ["times are at the reference speed; raw wall: %s; timed "
             "phase %.2f s" % (", ".join(
                 "%s %.4g" % (k, raw[k][0]) for k in
                 ("setup_s", "op_p50_s", "op_p90_s", "ops_per_s")), wall)]
    if broken is not None:
        notes.append("known-broken forms (outside the timed loop): "
                     "%d of %d fail" % (broken[1], broken[0]))
    extra = {"raw": {k: v[0] for k, v in raw.items()}}
    return values, ops, failures, notes, extra


# --- traced run: per-layer metrics ---------------------------------------


def layer_values(stats, scale, prefix=""):
    """Per-name and per-layer counters from merged wrapper stats."""
    values = {}

    def group_of(raw):
        for group, members in GROUPS.items():
            if raw in members:
                return group
        return raw

    for raw, (calls, failed, self_s, _) in stats.items():
        for name in {group_of(raw), raw}:
            entry = values.setdefault(prefix + name, [0, 0, 0.0])
            entry[0] += calls
            entry[1] += failed
            entry[2] += self_s * scale
        layer = raw.split(".", 1)[0]
        if layer in LAYERS:
            entry = values.setdefault(prefix + layer, [0, 0, 0.0])
            entry[2] += self_s * scale
    return values


def run_traced(args):
    from tracer import Tracer, load_modules, merge_stats

    modules = load_modules()
    tracer = Tracer()
    cli = args.workload == "cli-scripts"
    workload = make_workload(args.workload, args.seed)
    workload.traced = True
    child_stats, startups = {}, []

    def traced_op(item):
        op_span = len(tracer.spans)
        start = clock()
        result = tracer.op("bench.op", workload.run, item)
        if cli:
            # start-up: the child's wall outside lefweave.cli.main
            child = workload.child_stats
            startups.append(clock() - start - child["stats"]["cli.main"][3])
            merge_stats(child_stats, child["stats"])
            tracer.adopt(child["spans"], op_span)
        return result

    try:
        setup_scale = speed_scale()
        tracer.install(modules)
        start = clock()
        workload.setup()
        setup_wall = clock() - start
        setup_stats = tracer.take_stats()
        if cli:
            merge_stats(setup_stats, workload.child_stats["stats"])
        tracer.uninstall()

        # untraced reference: whole passes for a third of the time
        workload.traced = False
        plain, _ = timed_loop(workload, args.seconds / 3.0, workload.run,
                              min_ops=1)
        items = [item for item, _, _ in plain.records]

        workload.traced = True
        tracer.install(modules)
        traced = OpLog()
        start = clock()
        traced.run(items, traced_op)
        traced_wall = clock() - start - sum(traced.cals)
        tracer.uninstall()
        broken = workload.probe_known_broken() if cli else None
        failures = check(workload, plain) + check(workload, traced) + [
            "op %d: output changed under tracing" % i
            for i, (a, b) in enumerate(zip(plain.records, traced.records))
            if a[1:] != b[1:]]
    finally:
        tracer.uninstall()
        close(workload)

    scale = REFERENCE_S / statistics.median(traced.cals)
    stats = merge_stats(tracer.take_stats(), child_stats)
    values = layer_values(stats, scale)
    values.update(layer_values(setup_stats, setup_scale, "setup."))
    layer_self = sum(values.get(layer, [0, 0, 0.0])[2] for layer in LAYERS)
    startup_total = sum(startups) * scale
    plain_s, traced_s = sum(plain.scaled()), sum(traced.scaled())
    specials = {
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "trace.accounted_frac": (layer_self + startup_total)
        / (traced_wall * scale),
        "trace.wall_s": traced_wall * scale,
        "setup.wall_s": setup_wall * setup_scale,
        "cli.startup_s": statistics.median(startups) * scale
        if startups else 0.0,
        "cli.known_broken.failed_frac": (broken[1] / broken[0]
                                         if broken else 0.0),
    }
    extra = {"spans": tracer.spans, "dropped_spans": tracer.dropped,
             "stats": stats, "setup_stats": setup_stats,
             "speed_scale": scale}
    notes = ["untraced reference %.2f s, traced %.2f s over the same %d "
             "ops, at the reference speed" % (plain_s, traced_s, len(items))]
    return (layer_metrics(values, specials), len(traced.records),
            failures, notes, extra)


def layer_metrics(values, specials):
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    out = {}
    for name, unit in units.items():
        if name in specials:
            value = specials[name]
        else:
            group, field = name.rsplit(".", 1)
            calls, failed, self_s = values.get(group, [0, 0, 0.0])
            value = {"calls": calls, "failed": failed, "self_s": self_s,
                     "ok_frac": 1.0 - failed / calls if calls else 1.0,
                     }[field]
        out[name] = (value, unit, "")
    return out


# --- reporting ---------------------------------------------------------


def report(args, values, ops, failures, notes, extra):
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    meta = metadata(args, ops)
    print("# perfbench %s" % json.dumps(meta, sort_keys=True))
    for name, (value, unit, count) in values.items():
        print("  %-36s %14.6g %-6s %s" % (name, value, unit, count))
    for note in notes:
        print("# %s" % note)
    for reason in failures[:20]:
        print("# FAILED %s" % reason)
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not failures, "attempted": ops,
              "failed": len(failures), "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(result, meta=meta, failures=failures, notes=notes,
                       **extra), f)
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for spec in load_spec()["workloads"]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                spec["name"], "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (spec["name"], name)] = metric
    print(json.dumps(combined, sort_keys=True))
    return status if combined["correct"] else max(status, 1)


def main(argv=None):
    if not sources_present():
        print("perfbench: no lefweave sources under %s" % SRC,
              file=sys.stderr)
        return 2
    spec_names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec_names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(1, SRC)
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    run = run_traced if args.trace else run_untraced
    return report(args, *run(args))


if __name__ == "__main__":
    sys.exit(main())
