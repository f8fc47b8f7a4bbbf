"""
Labeled Motzkin paths encoding set partitions step for step.

Element i of a canonical partition becomes step i of the path:

- non-singleton opener  -> NE step, label 1
- singleton             -> E step, starred, label 1
- non-singleton closer  -> SE step, label gamma_i
- passant               -> E step (no star), label gamma_i

Heights stay non-negative and return to 0; an SE or plain E step leaving
height h carries a label in [1, h].  Under this encoding the height
before step i equals l_i and the label of an SE or plain E step is
gamma_i, so the path is the trace profile written as steps, and
``decode`` inverts ``core.trace_profile``.  The number of valid paths of
length n is the n-th Bell number.

``reflect`` mirrors a path left to right: NE and SE swap, E steps keep
their label and star at the mirrored position, and each output SE step
(sitting where an input NE step was) takes the label of the SE step
that closes that NE step, found with a stack of open NE steps.  NE
steps leaving height h and SE steps leaving height h+1 alternate, so
this is the level pairing "leftmost unpaired SE step leaving height
h+1".  Decoding the reflection of the encoding of p gives exactly
``bijections.phi(p)``.

Validation happens at the boundary only: the ``LabeledMotzkinPath``
constructor, ``parse``, ``from_json_dict`` and ``reflect`` check every
step.  ``encode`` builds its path from a trace profile, and
``enumerate_paths`` by steps after which the path can still return to 0;
both are valid by construction and go through the private
``LabeledMotzkinPath._trusted``.  ``decode`` trusts its path, checked or
built valid when it was made.

``enumerate_paths`` numbers the choices of a step leaving height h as
SE(1..h), E(1..h), E(1*), NE, and lists the paths in lexicographic order
of their choice indices: the next path raises the rightmost step that
has a next valid choice and refills the steps after it with SE(1) down
to height 0, then E(1*).

A ``Step`` is a named tuple (kind, label, starred), so a step equals
the plain tuple of its fields.  The passes read steps by unpacking or
index and compare kinds with ``==``, never ``is``: parsed and JSON
steps carry kind strings of their own.  Equal steps are shared:
``encode`` and ``enumerate_paths`` read the SE and plain E step of each
label from two process-wide tables (``core._growing``) that they grow to
n // 2, the greatest height at length n; ``reflect`` reuses the first
input SE step of each label.  ``parse``, ``from_json_dict`` and
``reflect`` never touch the tables, so no unchecked label can grow them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .core import CLOSER, OPENER, SINGLETON
from .core import SetPartition, _growing, trace_profile

NE, SE, E = "NE", "SE", "E"
_KINDS = (NE, SE, E)


class PathError(ValueError):
    """An invalid labeled Motzkin path; mentions the offending step."""


class Step(NamedTuple):
    """One step: kind NE, SE or E, its label, and the star of a singleton."""

    kind: str
    label: int
    starred: bool = False

    def text(self) -> str:
        star = "*" if self.starred else ""
        return f"{self.kind}({self.label}{star})"


@dataclass(frozen=True)
class LabeledMotzkinPath:
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        h = 0
        for idx, (kind, label, starred) in enumerate(self.steps, start=1):
            if kind not in _KINDS:
                raise PathError(f"step {idx}: unknown kind {kind!r}")
            if starred and kind != E:
                raise PathError(f"step {idx}: only E steps may be starred")
            if kind == NE:
                if label != 1:
                    raise PathError(f"step {idx}: NE steps carry label 1")
                h += 1
            elif starred:
                if label != 1:
                    raise PathError(f"step {idx}: starred E steps carry label 1")
            else:
                # SE or plain E leaving height h
                if not 1 <= label <= h:
                    raise PathError(f"step {idx}: label {label} outside [1, {h}]")
                if kind == SE:
                    h -= 1
        if h != 0:
            raise PathError(f"path ends at height {h}, not 0")

    @classmethod
    def _trusted(cls, steps: tuple[Step, ...]) -> "LabeledMotzkinPath":
        """The path of ``steps``, built valid by the caller; no check."""
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        return path

    @property
    def n(self) -> int:
        return len(self.steps)

    def heights(self) -> tuple[int, ...]:
        """Height before each step (prepended start height 0 excluded)."""
        out = []
        h = 0
        for step in self.steps:
            out.append(h)
            if step.kind == NE:
                h += 1
            elif step.kind == SE:
                h -= 1
        return tuple(out)

    def text(self) -> str:
        return " ".join(step.text() for step in self.steps)

    def __str__(self) -> str:
        return self.text()

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {"kind": s.kind, "label": s.label, "starred": s.starred}
                for s in self.steps
            ]
        }

    @classmethod
    def from_json_dict(cls, data) -> "LabeledMotzkinPath":
        items = data.get("steps", []) if isinstance(data, dict) else None
        if not isinstance(items, list):
            raise PathError('a JSON path is an object with a "steps" list')
        steps = []
        for idx, item in enumerate(items, start=1):
            if not isinstance(item, dict):
                raise PathError(f"step {idx}: not an object")
            for key in ("kind", "label"):
                if key not in item:
                    raise PathError(f"step {idx}: missing {key!r}")
            label, starred = item["label"], item.get("starred", False)
            if type(label) is not int:
                raise PathError(f"step {idx}: label {label!r} is not an integer")
            if type(starred) is not bool:
                raise PathError(f"step {idx}: starred {starred!r} is not true or false")
            steps.append(Step(kind=item["kind"], label=label, starred=starred))
        return cls(tuple(steps))

    _STEP = re.compile(r"^(NE|SE|E)\((\d+)(\*?)\)$")

    @classmethod
    def parse(cls, text: str) -> "LabeledMotzkinPath":
        """Parse the compact text form, e.g. ``NE(1) E(1*) SE(1)``."""
        stripped = text.strip()
        if not stripped:
            return cls(())
        if stripped.startswith("{"):
            try:
                data = json.loads(stripped)
            except RecursionError:
                raise PathError("path JSON is nested too deeply") from None
            return cls.from_json_dict(data)
        steps = []
        for token in stripped.split():
            m = cls._STEP.match(token)
            if m is None:
                raise PathError(f"cannot parse step {token!r}")
            steps.append(Step(m.group(1), int(m.group(2)), m.group(3) == "*"))
        return cls(tuple(steps))


# Every opener and singleton step is the same; steps are immutable.
_NE1 = Step(NE, 1)
_E1_STAR = Step(E, 1, starred=True)
# The SE and the plain E step of each label g, at index g.
_se_steps = _growing(lambda g: Step(SE, g))
_e_steps = _growing(lambda g: Step(E, g))


def encode(p: SetPartition) -> LabeledMotzkinPath:
    """The labeled path of a canonical partition."""
    profile = trace_profile(p)
    # labels run from 1 to the height, which is at most n / 2
    se, e = _se_steps(p.n // 2), _e_steps(p.n // 2)
    steps = []
    for kind, g in zip(profile.kinds, profile.gamma):
        if kind is OPENER:
            steps.append(_NE1)
        elif kind is SINGLETON:
            steps.append(_E1_STAR)
        else:
            steps.append(se[g] if kind is CLOSER else e[g])
    return LabeledMotzkinPath._trusted(tuple(steps))


def decode(path: LabeledMotzkinPath) -> SetPartition:
    """The partition whose encoding is ``path``, in one pass: an NE or
    starred E step opens a block, incomplete for NE; an SE or plain E
    step joins the label-th incomplete block from the left, SE sealing it."""
    word: list[int] = []
    incomplete: list[int] = []  # the incomplete blocks, ascending
    top = 0
    try:
        for step in path.steps:  # (kind, label, starred), read by index
            kind = step[0]
            if kind == NE:
                top += 1
                word.append(top)
                incomplete.append(top)
            elif kind == SE:
                word.append(incomplete.pop(step[1] - 1))
            elif step[2]:
                top += 1
                word.append(top)
            else:
                word.append(incomplete[step[1] - 1])
    except IndexError:
        # a label above the height, on an unchecked path: the checks name it
        LabeledMotzkinPath(path.steps)
        raise
    return SetPartition._trusted(tuple(word))


def reflect(path: LabeledMotzkinPath) -> LabeledMotzkinPath:
    """Mirror the path in a vertical axis.

    NE and SE swap kinds; E steps keep label and star at the mirrored
    position.  Each output SE step inherits the label of the input SE
    step that closes the NE step it replaces: a left-to-right pass keeps
    a stack of open NE steps, and each SE step pops the one it closes.
    """
    steps = path.steps
    # Written left to right, then reversed.
    out = list(steps)
    se: dict[int, Step] = {}
    opened = []  # positions of the NE steps not yet closed, innermost last
    try:
        for idx, step in enumerate(steps):
            kind = step[0]
            if kind == NE:
                opened.append(idx)
            elif kind == SE:
                out[opened.pop()] = se.setdefault(step[1], step)
                out[idx] = _NE1
    except IndexError:
        # an SE step below height 0, on an unchecked path: the checks name it
        LabeledMotzkinPath(steps)
        raise
    if opened:
        raise PathError("step %d: no matching SE step at height 1" % (opened[0] + 1))
    out.reverse()
    return LabeledMotzkinPath(tuple(out))


def enumerate_paths(n: int) -> Iterator[LabeledMotzkinPath]:
    """All valid labeled paths of length n (count: Bell number), by the
    successor step in the module docstring."""
    if n < 0:
        raise PathError("path length must be non-negative")
    se, e = _se_steps(n // 2), _e_steps(n // 2)  # heights stay <= n / 2
    # options[h]: the steps leaving height h in choice order, each with the height it reaches
    options = [
        [*((s, h - 1) for s in se[1 : h + 1]), *((s, h) for s in e[1 : h + 1]),
         (_E1_STAR, h), (_NE1, h + 1)]
        for h in range(n // 2 + 1)
    ]
    last = n - 1
    steps = [_E1_STAR] * n
    # per step: the height before it, its choice index and its last valid one
    heights, choices, limits = [0] * n, [0] * n, [0] * n
    i = h = 0  # refill from step i, leaving height h
    while True:
        for j in range(i, n):
            rem = last - j  # steps after this one
            heights[j], choices[j] = h, 0
            # only SE when every later step must descend; NE while a later one can close it
            limits[j] = h - 1 if h > rem else 2 * h + (h < rem)
            steps[j], h = options[h][0]
        yield LabeledMotzkinPath._trusted(tuple(steps))
        i = last
        while i >= 0 and choices[i] == limits[i]:
            i -= 1
        if i < 0:
            return
        c = choices[i] = choices[i] + 1
        steps[i], h = options[heights[i]][c]
        i += 1


def ascii_art(path: LabeledMotzkinPath) -> str:
    """A terminal picture: one column per step, labels in the last row."""
    if not path.steps:
        return "(empty path)"
    heights = path.heights()
    top = max(
        h + (1 if s.kind == NE else 0) for s, h in zip(path.steps, heights)
    )
    labels = [s.text()[s.text().index("(") :].strip("()") for s in path.steps]
    width = max(2, max(len(lbl) for lbl in labels) + 1)
    rows = []
    for level in range(top, 0, -1):
        row = []
        for step, h in zip(path.steps, heights):
            if step.kind == NE and h + 1 == level:
                row.append("/".ljust(width))
            elif step.kind == SE and h == level:
                row.append("\\".ljust(width))
            elif step.kind == E and h == level:
                row.append("-".ljust(width))
            else:
                row.append(" " * width)
        rows.append("".join(row).rstrip())
    base = []
    for step, h in zip(path.steps, heights):
        base.append(("-" if step.kind == E and h == 0 else " ").ljust(width))
    rows.append("".join(base).rstrip())
    rows.append("".join(lbl.ljust(width) for lbl in labels).rstrip())
    return "\n".join(row for row in rows if row)
