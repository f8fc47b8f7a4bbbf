import importlib
import re
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
