"""The committed golden transcripts under ``tests/golden`` and the one
comparison against them, shared by test_cli.py, which builds the
transcripts in process, and extended.py, which replays them command by
command.  It imports neither setpart nor hypothesis, so a pytest run of
one extended check does not load the property-test machinery."""

from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_equals_golden(got: str, name: str) -> None:
    """Require ``got`` to equal the golden file ``name`` exactly, failing
    with the first differing line and both line counts: pytest's own
    diff of two transcripts this long runs for minutes."""
    want = (GOLDEN / name).read_text()
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    # None past the last line, so a shorter transcript differs at its end
    line, got_line, want_line = next(
        (i, g, w)
        for i, (g, w) in enumerate(zip(got_lines + [None], want_lines + [None]), start=1)
        if g != w
    )
    pytest.fail(
        f"{name}: first difference at line {line}: got {got_line!r}, expected {want_line!r} "
        f"({len(got_lines)} lines, expected {len(want_lines)})",
        pytrace=False,
    )
