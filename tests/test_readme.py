import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_quickstart_runs_verbatim():
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from setpart." in code
    exec(compile(code, str(README), "exec"), {})


def test_package_exposes_its_modules_and_no_names():
    # `import setpart` loads no submodule; each one loads on first access
    probe = (
        "import sys; before = set(sys.modules); import setpart; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('setpart')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "['setpart']\n"
    import setpart

    modules = {"bijections", "cli", "core", "motzkin", "qseries", "stats", "verify"}
    assert {name for name in dir(setpart) if not name.startswith("_")} == modules
    for name in sorted(modules):
        assert getattr(setpart, name) is sys.modules[f"setpart.{name}"], name
    with pytest.raises(AttributeError, match="^module 'setpart' has no attribute 'nosuch'$"):
        setpart.nosuch


def test_every_module_name_the_readme_cites_exists():
    # Names like `motzkin.decode` or `setpart.core`, outside code blocks
    # and outside the API-change table, whose rows name removed objects.
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    table = text.index("| removed | use instead |")
    end = text.index("\n\n", table)
    text = text[:table] + text[end:]
    modules = {"setpart", "core", "stats", "bijections", "motzkin", "qseries", "verify", "cli"}
    cited = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text)
    checked = 0
    for name in cited:
        first, *rest = name.split(".")
        if first not in modules:
            continue
        obj = importlib.import_module("setpart" if first == "setpart" else f"setpart.{first}")
        for part in rest:
            assert hasattr(obj, part), f"README cites {name}, which does not exist"
            obj = getattr(obj, part)
        checked += 1
    assert checked >= 10


def test_each_extended_check_has_one_ci_step():
    # Every CI step after the benchmark self-test runs one check of
    # tests/extended.py, so a red step names its check, without the
    # hypothesis plugin, which would import hypothesis at the end of the run.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    after = workflow.split("run: python3 perfbench/selftest.py\n", 1)[1]
    runs = re.findall(r"^ +run: (.*)$", after, flags=re.M)
    step = re.compile(
        r"PYTHONPATH=src:tests python -m pytest -q -p no:hypothesispytest tests/extended\.py::(test_\w+)"
    )
    steps = [step.fullmatch(run) for run in runs]
    assert all(steps), [run for run, m in zip(runs, steps) if m is None]
    module = ast.parse((ROOT / "tests" / "extended.py").read_text(encoding="utf-8"))
    named = Counter(m[1] for m in steps)
    checks = Counter(
        f.name for f in module.body if isinstance(f, ast.FunctionDef) and f.name.startswith("test_")
    )
    assert named == checks, (
        f"checks with no step: {list(checks - named)}; "
        f"steps with no check, or a second step: {list(named - checks)}"
    )


def test_extended_checks_do_not_load_hypothesis():
    # each CI step imports tests/extended.py afresh; hypothesis, which no
    # extended check uses, would cost most of that step's start-up
    probe = "import sys, extended; print(sorted(m for m in sys.modules if 'hypothesis' in m))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src:tests"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
