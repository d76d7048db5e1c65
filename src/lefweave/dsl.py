"""Line-oriented scripting language for Lefschetz data.

Statements:

    fiber <name> = ak <m> n=<int>
    fiber <name> = plumbing a<k> n=<int>
    datum <name> over <fiber> = [ <cycle> (, <cycle>)* ]
    datum <name> = preset <preset-name>
    script <name> on <target> { <step>; ... }
    print invariants <name>
    verify <script-name>
    search <name> depth=<d> width=<w>

Cycle expressions are basis labels (``e1``), twists of another cycle
expression (``tw(e2)^2 e1``; the exponent may be negative, never zero),
or catalogue arcs (``arc(2,3; a2)``).  Script steps: ``hurwitzL i``,
``hurwitzR i``, ``rotate``, ``stabilize [ints]``, ``subflex [[ints]|none,
...]``, ``bsum <datum>``, ``certify-loose i``, ``flexify``.  A script's
resulting datum is registered under the script's name, so scripts chain.
``#`` starts a comment.  Fibers are capped at rank 2000 (``ak 2001``,
``plumbing a2000``) and ``n=1000``.  Parsing only checks names, syntax
and these caps; building and running happen in the cli module.

Parse trees are in the engine's terms.  A cycle expression is
``(letters, inner)``: (sphere label, exponent) twist letters, outermost
first, on ``("basis", label)`` or ``("arc", i, j, label)``.  A script
step is ``(tag, args)``, like a certificate step: a certify.STEPS tag or
``"flexify"``, and the arguments as written (a stabilize step has no
label yet, a bsum step names its datum).
"""

import difflib
import re
from collections import namedtuple

from . import Immutable, LefweaveError
from .certify import STEPS, step_text
from .presets import PRESETS


class DslError(LefweaveError):
    """A syntax or name error, carrying its source position."""

    def __init__(self, message, line, column, **context):
        super().__init__("line %d, column %d: %s" % (line, column, message),
                         **context)
        self.line = line
        self.column = column


_Token = namedtuple("_Token", ("kind", "value", "line", "column"))

_TOKEN = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#.*)"
    r"|(?P<int>-?\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_-]*)"
    r"|(?P<sym>[][=(){},;^])"
)

_STATEMENTS = ("fiber", "datum", "script", "print", "verify", "search")
# Script words and their move tags, read from the step table: every step
# but insert-sphere, which only flexify writes, plus flexify.
SCRIPT_WORDS = {row.word: tag for tag, row in STEPS.items()
                if tag != "insert_sphere"}
SCRIPT_WORDS["flexify"] = "flexify"
# Fiber size caps: Gram rows are dense in the rank, and the invariants
# list one homology entry per degree.
_MAX_RANK = 2000
_MAX_DIMENSION = 1000


def _int(digits, line, column):
    try:
        return int(digits)
    except ValueError as err:
        # past the interpreter's str-to-int digit limit
        raise DslError(str(err), line, column) from None


def _tokenize(text):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(raw):
            m = _TOKEN.match(raw, pos)
            if m is None:
                raise DslError("unexpected character %r" % raw[pos],
                               lineno, pos + 1)
            kind = m.lastgroup
            if kind == "int":
                tokens.append(_Token("int", _int(m.group(), lineno, pos + 1),
                                     lineno, pos + 1))
            elif kind == "name":
                tokens.append(_Token("name", m.group(), lineno, pos + 1))
            elif kind == "sym":
                tokens.append(_Token(m.group(), m.group(), lineno, pos + 1))
            pos = m.end()
        tokens.append(_Token("nl", None, lineno, len(raw) + 1))
    return tokens


def _suggest(name, candidates):
    close = difflib.get_close_matches(name, sorted(candidates), 1)
    if close:
        return " (did you mean %r?)" % close[0]
    return ""


class Workspace(Immutable):
    """Parsed definitions and commands, in source order.

    ``definitions`` holds (kind, name, payload) triples and ``commands``
    holds command tuples; both are plain data, nothing is built yet.
    Equality ignores source locations, so pretty-printed round trips
    compare equal.
    """

    __slots__ = ("definitions", "commands", "def_lines", "cmd_lines")

    def __init__(self, definitions, commands, def_lines, cmd_lines):
        object.__setattr__(self, "definitions", tuple(definitions))
        object.__setattr__(self, "commands", tuple(commands))
        object.__setattr__(self, "def_lines", tuple(def_lines))
        object.__setattr__(self, "cmd_lines", tuple(cmd_lines))

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        return (self.definitions, self.commands) == (other.definitions,
                                                     other.commands)

    def __hash__(self):
        return hash((self.definitions, self.commands))

    def __repr__(self):
        return "Workspace(%d definitions, %d commands)" % (
            len(self.definitions), len(self.commands))


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.kinds = {}
        self.definitions = []
        self.commands = []
        self.def_lines = []
        self.cmd_lines = []

    # --- token helpers -------------------------------------------------

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        last = self.tokens[-1] if self.tokens else _Token("nl", None, 1, 1)
        return _Token("eof", None, last.line, last.column)

    def _next(self):
        tok = self._peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _skip_newlines(self):
        while self._peek().kind == "nl":
            self.pos += 1

    def _expect(self, kind, what):
        tok = self._next()
        if tok.kind != kind:
            raise DslError("expected %s" % what, tok.line, tok.column,
                           got=tok.value)
        return tok

    def _expect_word(self, word):
        tok = self._next()
        if tok.kind != "name" or tok.value != word:
            raise DslError("expected %r" % word, tok.line, tok.column,
                           got=tok.value)
        return tok

    def _end_statement(self):
        tok = self._peek()
        if tok.kind not in ("nl", "eof"):
            raise DslError("unexpected trailing input", tok.line, tok.column,
                           got=tok.value)

    # --- name bookkeeping ----------------------------------------------

    def _define(self, what):
        tok = self._expect("name", what)
        if tok.value in self.kinds:
            raise DslError("name %r is already defined" % tok.value,
                           tok.line, tok.column)
        return tok.value

    def _add_definition(self, head, kind, name, payload):
        self._end_statement()
        self.kinds[name] = kind
        self.definitions.append((kind, name, payload))
        self.def_lines.append(head.line)

    def _add_command(self, head, command):
        self._end_statement()
        self.commands.append(command)
        self.cmd_lines.append(head.line)

    def _reference(self, tok, kinds, what):
        name = tok.value
        if self.kinds.get(name) not in kinds:
            known = [n for n, k in self.kinds.items() if k in kinds]
            raise DslError(
                "unknown %s %r%s" % (what, name, _suggest(name, known)),
                tok.line, tok.column)
        return name

    # --- statements ------------------------------------------------------

    def parse(self):
        while True:
            self._skip_newlines()
            tok = self._peek()
            if tok.kind == "eof":
                break
            if tok.kind != "name" or tok.value not in _STATEMENTS:
                raise DslError(
                    "unknown statement %r%s"
                    % (tok.value, _suggest(str(tok.value), _STATEMENTS)),
                    tok.line, tok.column)
            getattr(self, "_parse_" + tok.value)()
        return Workspace(self.definitions, self.commands,
                         self.def_lines, self.cmd_lines)

    def _parse_fiber(self):
        head = self._next()
        name = self._define("a fiber name")
        self._expect("=", "'='")
        kind_tok = self._expect("name", "'ak' or 'plumbing'")
        if kind_tok.value == "ak":
            m = self._expect_size("the number of marked points",
                                  _MAX_RANK + 1)
            payload = ("ak", m, self._parse_dimension())
        elif kind_tok.value == "plumbing":
            tree_tok = self._expect("name", "a plumbing tree")
            match = re.fullmatch(r"a(\d+)", tree_tok.value)
            if match is None:
                raise DslError(
                    "only the path shorthand a<k> is built in",
                    tree_tok.line, tree_tok.column, got=tree_tok.value)
            k = _int(match.group(1), tree_tok.line, tree_tok.column)
            k = self._cap(tree_tok, k, _MAX_RANK, "a path plumbing's rank")
            payload = ("plumbing", k, self._parse_dimension())
        else:
            raise DslError(
                "expected 'ak' or 'plumbing'%s"
                % _suggest(kind_tok.value, ("ak", "plumbing")),
                kind_tok.line, kind_tok.column)
        self._add_definition(head, "fiber", name, payload)

    def _parse_dimension(self):
        self._expect_word("n")
        self._expect("=", "'='")
        return self._expect_size("the fiber dimension", _MAX_DIMENSION)

    def _expect_size(self, what, cap):
        tok = self._expect("int", what)
        return self._cap(tok, tok.value, cap, what)

    def _cap(self, tok, value, cap, what):
        if value > cap:
            raise DslError("%s is at most %d, not %d" % (what, cap, value),
                           tok.line, tok.column)
        return value

    def _parse_datum(self):
        head = self._next()
        name = self._define("a datum name")
        tok = self._next()
        if tok.kind == "name" and tok.value == "over":
            fiber_tok = self._expect("name", "a fiber name")
            fiber = self._reference(fiber_tok, ("fiber",), "fiber")
            self._expect("=", "'='")
            payload = ("cycles", fiber, self._list(self._parse_cycle))
        elif tok.kind == "=":
            self._expect_word("preset")
            preset_tok = self._expect("name", "a preset name")
            if preset_tok.value not in PRESETS:
                raise DslError(
                    "unknown preset %r%s"
                    % (preset_tok.value, _suggest(preset_tok.value, PRESETS)),
                    preset_tok.line, preset_tok.column)
            payload = ("preset", preset_tok.value)
        else:
            raise DslError("expected 'over' or '='", tok.line, tok.column,
                           got=tok.value)
        self._add_definition(head, "datum", name, payload)

    def _parse_cycle(self):
        letters = []
        while True:
            tok = self._next()
            if tok.kind != "name":
                raise DslError("expected a cycle expression", tok.line,
                               tok.column, got=tok.value)
            if tok.value != "tw":
                break
            self._expect("(", "'('")
            sphere = self._expect("name", "a basis sphere").value
            self._expect(")", "')'")
            self._expect("^", "'^'")
            exp_tok = self._expect("int", "a twist exponent")
            if exp_tok.value == 0:
                raise DslError("zero twist exponent is not allowed",
                               exp_tok.line, exp_tok.column)
            letters.append((sphere, exp_tok.value))
        if tok.value == "arc":
            self._expect("(", "'('")
            i = self._expect("int", "an endpoint").value
            self._expect(",", "','")
            j = self._expect("int", "an endpoint").value
            self._expect(";", "';'")
            label = self._expect("name", "a catalogue arc name").value
            self._expect(")", "')'")
            inner = ("arc", i, j, label)
        else:
            inner = ("basis", tok.value)
        return (tuple(letters), inner)

    def _parse_script(self):
        head = self._next()
        name = self._define("a script name")
        self._expect_word("on")
        target = self._arg_datum()
        self._expect("{", "'{'")
        steps = []
        while True:
            self._skip_newlines()
            tok = self._peek()
            if tok.kind == "}":
                self._next()
                break
            if tok.kind == "eof":
                raise DslError("unterminated script (missing '}')",
                               head.line, head.column)
            steps.append(self._parse_step())
            if self._peek().kind == ";":
                self._next()
        self._add_definition(head, "script", name, (target, tuple(steps)))

    def _parse_step(self):
        tok = self._next()
        if tok.kind != "name" or tok.value not in SCRIPT_WORDS:
            raise DslError(
                "unknown script step %r%s"
                % (tok.value, _suggest(str(tok.value), SCRIPT_WORDS)),
                tok.line, tok.column)
        tag = SCRIPT_WORDS[tok.value]
        kinds = STEPS[tag].kinds if tag in STEPS else ()
        # a stabilize label is picked when the script runs
        return (tag, tuple(getattr(self, "_arg_" + kind)() for kind in kinds
                           if kind != "label"))

    def _arg_pos(self):
        pos_tok = self._expect("int", "a cycle position")
        if pos_tok.value < 1:
            raise DslError("positions are 1-based", pos_tok.line,
                           pos_tok.column, got=pos_tok.value)
        return pos_tok.value

    def _arg_disks(self):
        return self._list(self._parse_subflex_entry)

    def _arg_datum(self):
        name_tok = self._expect("name", "a datum name")
        return self._reference(name_tok, ("datum", "script"), "datum")

    def _arg_ints(self):
        return self._list(lambda: self._expect("int", "an integer").value)

    def _list(self, item):
        """``[item, ...]``, possibly empty, as a tuple."""
        self._expect("[", "'['")
        items = []
        if self._peek().kind != "]":
            items.append(item())
            while self._peek().kind == ",":
                self._next()
                items.append(item())
        self._expect("]", "']' or ','")
        return tuple(items)

    def _parse_subflex_entry(self):
        tok = self._peek()
        if tok.kind == "name" and tok.value == "none":
            self._next()
            return None
        if tok.kind == "[":
            return self._arg_ints()
        raise DslError("expected a pairing vector or 'none'",
                       tok.line, tok.column, got=tok.value)

    def _parse_print(self):
        head = self._next()
        self._expect_word("invariants")
        name = self._arg_datum()
        self._add_command(head, ("print_invariants", name))

    def _parse_verify(self):
        head = self._next()
        name_tok = self._expect("name", "a script name")
        name = self._reference(name_tok, ("script",), "script")
        self._add_command(head, ("verify", name))

    def _parse_search(self):
        head = self._next()
        name = self._arg_datum()
        bounds = {"depth": None, "width": None}
        for key in bounds:
            tok = self._peek()
            if tok.kind == "name" and tok.value == key:
                self._next()
                self._expect("=", "'='")
                bounds[key] = self._expect("int", "an integer").value
        self._add_command(head, ("search", name, bounds["depth"],
                                 bounds["width"]))


def parse(text):
    """Parse script text into a Workspace (no building, no running)."""
    return _Parser(text).parse()


# --- pretty printer -----------------------------------------------------


def _cycle_text(ast):
    letters, inner = ast
    parts = ["tw(%s)^%d" % letter for letter in letters]
    if inner[0] == "basis":
        parts.append(inner[1])
    else:
        parts.append("arc(%d,%d; %s)" % inner[1:])
    return " ".join(parts)


def _command_text(cmd):
    if cmd[0] == "print_invariants":
        return "print invariants %s" % cmd[1]
    if cmd[0] == "verify":
        return "verify %s" % cmd[1]
    text = "search %s" % cmd[1]
    if cmd[2] is not None:
        text += " depth=%d" % cmd[2]
    if cmd[3] is not None:
        text += " width=%d" % cmd[3]
    return text


def pretty_print(workspace):
    """Canonical text whose parse equals the workspace."""
    lines = []
    for kind, name, payload in workspace.definitions:
        if kind == "fiber":
            shape, size, n = payload
            shape_text = "ak %d" % size if shape == "ak" else "plumbing a%d" % size
            lines.append("fiber %s = %s n=%d" % (name, shape_text, n))
        elif kind == "datum":
            if payload[0] == "preset":
                lines.append("datum %s = preset %s" % (name, payload[1]))
            else:
                body = ", ".join(_cycle_text(c) for c in payload[2])
                lines.append("datum %s over %s = [%s]"
                             % (name, payload[1], body))
        else:
            target, steps = payload
            lines.append("script %s on %s {" % (name, target))
            for tag, args in steps:
                lines.append("  %s;" % (
                    tag if tag == "flexify" else step_text(tag, args)))
            lines.append("}")
    for cmd in workspace.commands:
        lines.append(_command_text(cmd))
    return "".join(line + "\n" for line in lines)
