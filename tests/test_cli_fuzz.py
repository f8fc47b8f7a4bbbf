"""Random command lines through cli.main.

Every command line argparse accepts must end in exit 0, 1 or 2, with at
most one stderr line (starting ``error:``) when it fails and never an
escaped exception.  The generated arguments mix well-formed and broken
partition text, polynomial text (which no subcommand parses, so it only
ever arrives as malformed input), labeled-path text and path JSON.
Sizes are either small enough to run in well under a second or large
enough that a cap or the enumeration budget must refuse them before any
work, so a command that runs past the per-example deadline fails.

Free text never starts with "-", which argparse would read as an option
and answer with its own usage error.  ``--threads`` stays at most 1,
except that a ``verify`` command line with ``--n-max`` at most 4 may ask
for 2, so that no example starts more than two worker processes; its
stdout must then equal the same command's stdout at ``--threads 1``.
"""

import contextlib
import io
import json
import random
import re
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from setpart import cli, verify
from setpart.core import SetPartition
from setpart.qseries import QPolynomial

from oracles import format_blocks
from test_core import rgf_words

# No per-example deadline, loaded before the first @given reads the default.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@st.composite
def partition_texts(draw):
    """Canonical and reordered partition text of n <= 7."""
    blocks = list(SetPartition(draw(rgf_words(max_n=7))).blocks)
    random.Random(draw(st.integers(0, 99))).shuffle(blocks)
    return format_blocks(blocks)


def _free(strategy):
    return strategy.filter(lambda text: not text.startswith("-"))


JUNK = _free(st.text(alphabet="0123456789,/ x-+*^q()[]{}:\"NESE²", max_size=20))
POLYNOMIALS = st.lists(st.integers(-3, 5), max_size=6).map(lambda cs: QPolynomial(cs).text())
STEPS = st.sampled_from(["NE(1)", "SE(1)", "E(1)", "E(1*)", "NE(2)", "SE(0)", "E(3*)", "NE"])
PATH_TEXT = st.lists(STEPS, max_size=8).map(" ".join)
SCALARS = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["NE", "SE", "E", "x"])
STEP_OBJECTS = st.dictionaries(st.sampled_from(["kind", "label", "starred", "other"]), SCALARS)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
)
PATH_JSON = (
    st.fixed_dictionaries({"steps": st.lists(STEP_OBJECTS | SCALARS, max_size=5)}) | ANY_JSON
).map(json.dumps)
TEXT = partition_texts() | JUNK | _free(POLYNOMIALS) | PATH_TEXT | _free(PATH_JSON)

# Small sizes run at once.  With a large n, all partitions are over the
# budget and must be refused before any work, and a block count k near 1
# or n leaves only a few hundred partitions.
SIZES = st.integers(-2, 6) | st.sampled_from([13, 14, 20, 65, 10**6])


def block_counts(n):
    return st.sampled_from(["all", "-1", "0", "1", str(n - 1), str(n), str(n + 1)])


STATISTICS = st.sampled_from(
    ["mak", "makp", "lmak", "ros", "mak+bmaj", "mak_l", "stat_i", "rinv", "binv", "nope", ""]
)
INTS = st.integers(-2, 6)


@st.composite
def argvs(draw):
    commands = ["enumerate", "stats", "genfun", "qstirling", "phi", "phi-i", "motzkin", "verify"]
    command = draw(st.sampled_from(commands))
    two_workers = False
    argv = [command]
    optional = lambda *flag: argv.extend(flag) if draw(st.booleans()) else None
    if command == "enumerate":
        n = draw(SIZES)
        argv += ["-n", str(n)]
        optional("-k", draw(block_counts(n).filter(lambda k: k != "all")))
        optional("--ordered")
    elif command == "stats":
        argv.append(draw(TEXT))
        optional("-s", ",".join(draw(st.lists(STATISTICS, max_size=3))))
        optional("-l", str(draw(INTS)))
        optional("-b", str(draw(INTS)))
        optional("--per-element")
    elif command in ("genfun", "qstirling"):
        n = draw(SIZES)
        argv += ["-n", str(n)]
        optional("-k", draw(block_counts(n) | JUNK))
        if command == "genfun":
            optional("-s", draw(STATISTICS | JUNK))
            optional("-l", str(draw(INTS)))
            optional("--ordered")
            targets = ["none", "qstirling", "qstirling-times-qfact"]
            optional("--compare", draw(st.sampled_from(targets)))
        else:
            optional("--shifted")
    elif command == "phi":
        argv.append(draw(TEXT))
        optional("--certificate")
    elif command == "phi-i":
        argv += [draw(TEXT), "-i", str(draw(INTS))]
    elif command == "motzkin":
        if draw(st.booleans()):
            argv.append(draw(TEXT))
        optional("--decode", draw(TEXT))
        optional("--ascii")
    else:
        argv.append(draw(st.sampled_from(list(verify.SUITE_NAMES) + ["all"])))
        # the default ranges take seconds, so --n-max is always given
        n_max = draw(st.integers(-1, 5) | st.sampled_from([14, 21, 10**6]))
        argv += ["--n-max", str(n_max)]
        optional("--max-witnesses", str(draw(st.integers(-1, 3))))
        two_workers = n_max <= 4 and draw(st.booleans())
    optional("--json")
    if two_workers:
        argv += ["--threads", "2"]
    else:
        optional("--threads", draw(st.sampled_from(["1", "1", "1", "0", "-1"])))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _untimed(stdout):
    # the JSON report carries its own wall time
    return re.sub(r'"wall_time_s": [-+.0-9e]+', '"wall_time_s": null', stdout)


@settings(max_examples=500, deadline=timedelta(seconds=10))
@given(argvs())
@example(["verify", "all", "--n-max", "4", "--threads", "2"])
@example(["verify", "motzkin", "--n-max", "4", "--json", "--threads", "2"])
def test_every_command_line_ends_in_an_exit_code(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.splitlines()
        assert len(lines) <= 1, lines
        assert all(line.startswith("error: ") for line in lines), lines
    if argv[-2:] == ["--threads", "2"]:
        one = _run(argv[:-1] + ["1"])
        assert one[0] == code
        assert _untimed(one[1]) == _untimed(out)
