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
import os
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


def _define(definition, values, presets, scripts):
    """Build one definition into ``values``, the workspace's name table.

    The parser refuses a reused name, so fibers, data and scripts share
    the table.  ``presets`` holds the names built from a preset, and a
    script on one of them; ``scripts`` maps a script's name to its
    target, base datum, certificate and step texts.
    """
    kind, name, payload = definition
    if kind == "fiber":
        values[name] = _build_fiber(payload)
    elif kind == "datum" and payload[0] == "preset":
        values[name] = preset(payload[1])
        presets.add(name)
    elif kind == "datum":
        fiber = values[payload[1]]
        values[name] = LefschetzDatum(
            fiber, [_build_cycle(fiber, ast) for ast in payload[2]])
    else:
        target, steps = payload
        base = values[target]
        values[name], cert, texts = _run_script(base, steps, values)
        scripts[name] = (target, base, cert, texts)
        if target in presets:
            presets.add(name)


def _command(command, values, presets, scripts, depth_default,
             width_default):
    """One command's result entry, and whether it failed (exit 1)."""
    name = command[1]
    if command[0] == "print_invariants":
        entry = {"command": "print invariants", "datum": name,
                 "preset": name in presets}
        entry.update(invariants_payload(total_space_invariants(values[name])))
        return entry, False
    if command[0] == "verify":
        target, base, cert, texts = scripts[name]
        res = verify_certificate(base, cert)
        entry = {
            "command": "verify",
            "script": name,
            "base": target,
            "preset": name in presets,
            "accepted": res.accepted,
            "reason": res.reason,
            "trace": list(res.trace),
        }
        entry.update(certificate_payload(cert, texts))
        return entry, not res.accepted
    depth = depth_default if command[2] is None else command[2]
    width = width_default if command[3] is None else command[3]
    found = search_certificate(values[name], depth, width)
    return {
        "command": "search",
        "datum": name,
        "preset": name in presets,
        "depth": depth,
        "width": width,
        "found": found is not None,
        "certificate": (None if found is None
                        else certificate_payload(found)),
    }, found is None


# the bounds of a script's search that gives none, unless the command
# line sets others
DEPTH_DEFAULT, WIDTH_DEFAULT = 4, 10000


def execute(workspace, depth_default=DEPTH_DEFAULT,
            width_default=WIDTH_DEFAULT):
    """Run a parsed workspace; returns (results, exit_status)."""
    values, presets, scripts = {}, set(), {}
    for line, definition in zip(workspace.def_lines, workspace.definitions):
        try:
            _define(definition, values, presets, scripts)
        except LefweaveError as err:
            raise CliError("line %d: while defining %r: %s"
                           % (line, definition[1], err))
    results, status = [], 0
    for line, command in zip(workspace.cmd_lines, workspace.commands):
        try:
            entry, failed = _command(command, values, presets, scripts,
                                     depth_default, width_default)
        except LefweaveError as err:
            raise CliError("line %d: while running %r: %s"
                           % (line, command[0], err))
        results.append(entry)
        status |= failed
    return results, status


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
    run_parser.add_argument("--depth", type=int, default=DEPTH_DEFAULT,
                            help="default search depth (default %(default)s)")
    run_parser.add_argument("--width", type=int, default=WIDTH_DEFAULT,
                            help="default search beam width "
                            "(default %(default)s)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="echoed in the output metadata")
    check_parser = sub.add_parser(
        "check", help="parse a script file without running it")
    check_parser.add_argument("file")
    args = parser.parse_args(argv)

    # exact answers print in full, however many digits they have
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _main(args)
    except OSError as err:
        if isinstance(err, BrokenPipeError):
            # the reader is gone: shutdown's flush goes to devnull instead
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("lefweave: %s" % err, file=sys.stderr)
    except (UnicodeDecodeError, LefweaveError) as err:
        print("lefweave: %s: %s" % (args.file, err), file=sys.stderr)
    except MemoryError:
        print("lefweave: %s: out of memory" % args.file, file=sys.stderr)
    except RecursionError:
        print("lefweave: %s: recursion too deep" % args.file,
              file=sys.stderr)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 2


def _main(args):
    # utf-8-sig drops a leading byte-order mark
    with open(args.file, encoding="utf-8-sig") as handle:
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
    # a closed stdout fails here, not at interpreter shutdown
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
