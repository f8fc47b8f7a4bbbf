import types
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs_verbatim():
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from setpart." in code
    exec(compile(code, str(README), "exec"), {})


def test_package_exposes_its_modules_and_no_names():
    import setpart

    public = {name: value for name, value in vars(setpart).items() if not name.startswith("_")}
    # setpart.cli joins them once something imports it
    assert all(isinstance(value, types.ModuleType) for value in public.values()), public
    assert {"bijections", "core", "motzkin", "qseries", "stats", "verify"} <= set(public)
