"""The ``lefweave`` command: build, run, verify, and export as JSON.

``lefweave run <file>`` executes a script file and prints one canonical
JSON document (keys sorted, two-space indent, trailing newline), so
identical inputs give identical bytes.  ``lefweave check <file>`` parses
only.  Exit status: 0 success, 1 when a verify rejected or a search
found nothing, 2 on any error.

Scripts execute at their definition: the resulting datum is registered
under the script's name and the step list becomes a replayable
certificate (``flexify`` expands to its insert/Hurwitz/certify steps).
``verify`` replays that certificate from the script's base datum.
"""

import argparse
import json
import sys

from . import LefweaveError, __version__
from .arcs import induced_word
from .certify import (
    Certificate,
    flexify_after_handles,
    replay,
    search_certificate,
    step_text,
    terminal_claim,
    verify_certificate,
)
from .dsl import parse
from .fibers import PlumbingTree, ak_matching_fiber, plumbing_lattice
from .invariants import total_space_invariants
from .lattice import TwistWord
from .presentation import LefschetzDatum, VanishingCycle, stabilize_label
from .presets import preset


class CliError(LefweaveError):
    """An execution error, annotated with its command context."""


def _build_fiber(payload):
    shape, size, n = payload
    if shape == "ak":
        return ak_matching_fiber(size, n)
    return plumbing_lattice(PlumbingTree.path(size, prefix="e"), n)


def _build_cycle(fiber, ast):
    letters, inner = ast
    spheres = {label: fiber.basis_sphere(label)
               for label in dict.fromkeys(label for label, _ in letters)}
    if inner[0] == "basis":
        word, arc = TwistWord((), fiber.basis_sphere(inner[1])), None
    else:
        _, i, j, label = inner
        system = fiber.arc_system
        if system is None:
            raise CliError("this fiber has no arc system", label=label)
        try:
            arc = system.catalogue[label]
        except KeyError:
            raise CliError("unknown catalogue arc %r" % label,
                           known=sorted(system.catalogue))
        # catalogue arcs are the standard edges
        endpoints = (arc.base_index, arc.base_index + 1)
        if endpoints != tuple(sorted((i, j))):
            raise CliError(
                "catalogue arc %r joins points %s, not (%d, %d)"
                % (label, endpoints, i, j))
        word = induced_word(system, arc)
    if letters:
        # one freely reducing pass over the letters, then the inner word's
        word, arc = TwistWord(
            [(spheres[label], exp) for label, exp in letters]
            + list(word.letters), word.base), None
    return VanishingCycle(fiber.lattice, word, arc=arc)


def _run_script(base, steps, values):
    current = base
    moves, texts, summary = [], [], []
    for tag, args in steps:
        if tag == "flexify":
            current, sub = flexify_after_handles(current)
            texts.extend(step_text(*move) for move in sub.moves)
        else:
            if tag == "stabilize":
                args += (stabilize_label(current.fiber),)
            # a bsum's text names its summand
            texts.append(step_text(tag, args))
            if tag == "bsum":
                args = (values[args[0]],)
            current, sub = replay(current, ((tag, args),))
        moves.extend(sub.moves)
        summary.extend(sub.certifications)
    cert = Certificate(tuple(moves), tuple(summary), terminal_claim(current))
    return current, cert, tuple(texts)


def invariants_payload(inv):
    """The canonical JSON payload of a TotalSpaceInvariants value."""
    rank, abs_det, signature = inv.form_invariants
    return {
        "n": inv.n,
        "chi": inv.chi,
        "homology": [
            {"degree": degree, "free": free, "torsion": list(torsion)}
            for degree, free, torsion in inv.homology
        ],
        "middle_form": {
            "matrix": [list(row) for row in inv.middle_form],
            "symmetry": ("symmetric" if inv.middle_symmetry == "symmetric"
                         else "skew"),
            "rank": rank,
            "abs_det": abs_det,
            "signature": signature,
        },
    }


def certificate_payload(cert, texts=None):
    """The canonical JSON payload of a Certificate."""
    if texts is None:
        texts = tuple(step_text(*step) for step in cert.moves)
    return {
        "moves": list(texts),
        "certifications": [[pos, rule] for pos, rule in cert.certifications],
        "claim": cert.terminal_claim,
    }


class _Session:
    """One run of a parsed workspace: definitions, commands, results."""

    def __init__(self, workspace, depth_default, width_default):
        self.workspace = workspace
        self.depth_default = depth_default
        self.width_default = width_default
        self.fibers = {}
        self.values = {}
        self.scripts = {}
        self.from_preset = {}
        self.results = []
        self.status = 0

    def run(self):
        ws = self.workspace
        for index, definition in enumerate(ws.definitions):
            self._guarded(ws.def_lines[index], "defining %r" % definition[1],
                          self._define, definition)
        for index, command in enumerate(ws.commands):
            self._guarded(ws.cmd_lines[index], "running %r" % command[0],
                          self._command, command)
        return self.results, self.status

    def _guarded(self, line, doing, func, arg):
        try:
            func(arg)
        except LefweaveError as err:
            raise CliError("line %d: while %s: %s" % (line, doing, err))

    def _define(self, definition):
        kind, name, payload = definition
        if kind == "fiber":
            self.fibers[name] = _build_fiber(payload)
            return
        if kind == "datum":
            if payload[0] == "preset":
                self.values[name] = preset(payload[1])
                self.from_preset[name] = True
                return
            fiber = self.fibers[payload[1]]
            cycles = [_build_cycle(fiber, ast) for ast in payload[2]]
            self.values[name] = LefschetzDatum(fiber, cycles)
            self.from_preset[name] = False
            return
        target, steps = payload
        base = self.values[target]
        final, cert, texts = _run_script(base, steps, self.values)
        self.values[name] = final
        self.scripts[name] = (target, base, cert, texts)
        self.from_preset[name] = self.from_preset[target]

    def _command(self, command):
        if command[0] == "print_invariants":
            name = command[1]
            inv = total_space_invariants(self.values[name])
            entry = {"command": "print invariants", "datum": name,
                     "preset": self.from_preset[name]}
            entry.update(invariants_payload(inv))
            self.results.append(entry)
            return
        if command[0] == "verify":
            name = command[1]
            target, base, cert, texts = self.scripts[name]
            res = verify_certificate(base, cert)
            if not res.accepted:
                self.status = max(self.status, 1)
            entry = {
                "command": "verify",
                "script": name,
                "base": target,
                "preset": self.from_preset[name],
                "accepted": res.accepted,
                "reason": res.reason,
                "trace": list(res.trace),
            }
            entry.update(certificate_payload(cert, texts))
            self.results.append(entry)
            return
        _, name, depth, width = command
        if depth is None:
            depth = self.depth_default
        if width is None:
            width = self.width_default
        found = search_certificate(self.values[name], depth, width)
        if found is None:
            self.status = max(self.status, 1)
        self.results.append({
            "command": "search",
            "datum": name,
            "preset": self.from_preset[name],
            "depth": depth,
            "width": width,
            "found": found is not None,
            "certificate": (None if found is None
                            else certificate_payload(found)),
        })


def execute(workspace, depth_default=4, width_default=10000):
    """Run a parsed workspace; returns (results, exit_status)."""
    return _Session(workspace, depth_default, width_default).run()


def render(results, source, seed=None):
    """The canonical JSON document for a run's results."""
    doc = {
        "meta": {
            "tool": "lefweave",
            "version": __version__,
            "source": source,
            "seed": seed,
        },
        "results": results,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lefweave",
        description="Lefschetz-presentation calculus scripts.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_parser = sub.add_parser(
        "run", help="execute a script file, print canonical JSON")
    run_parser.add_argument("file")
    run_parser.add_argument("--json-out", metavar="PATH",
                            help="also write the JSON document here")
    run_parser.add_argument("--depth", type=int, default=4,
                            help="default search depth (default 4)")
    run_parser.add_argument("--width", type=int, default=10000,
                            help="default search beam width (default 10000)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="echoed in the output metadata")
    check_parser = sub.add_parser(
        "check", help="parse a script file without running it")
    check_parser.add_argument("file")
    args = parser.parse_args(argv)

    try:
        return _main(args)
    except OSError as err:
        print("lefweave: %s" % err, file=sys.stderr)
    except UnicodeDecodeError as err:
        print("lefweave: %s: %s" % (args.file, err), file=sys.stderr)
    except LefweaveError as err:
        print("lefweave: %s: %s" % (args.file, err), file=sys.stderr)
    except MemoryError:
        print("lefweave: %s: out of memory" % args.file, file=sys.stderr)
    except RecursionError:
        print("lefweave: %s: recursion too deep" % args.file,
              file=sys.stderr)
    return 2


def _main(args):
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    workspace = parse(text)
    if args.subcommand == "check":
        return 0
    results, status = execute(workspace, args.depth, args.width)
    blob = render(results, args.file, args.seed)
    if args.json_out:
        # written first, so a failed write leaves stdout empty
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(blob)
    sys.stdout.write(blob)
    return status


if __name__ == "__main__":
    sys.exit(main())
