import ast
import importlib
import re
import shlex
from functools import reduce
from pathlib import Path

import cloee
from cloee import parse_scenario
from cloee.cli import main
from test_public_surface import module_definitions

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
ROADMAP = TESTS.parent / "ROADMAP.md"
PACKAGE = Path(cloee.__file__).resolve().parent


def test_readme_documents_every_public_name():
    # cloee.__all__ is the library the README documents.
    text = README.read_text()
    missing = [name for name in cloee.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not missing, f"public names missing from README.md: {missing}"


def test_readme_names_every_module():
    # The README's Layout block lists each module of the package.
    text = README.read_text()
    missing = [p.name for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py" and not re.search(rf"\b{re.escape(p.name)}\b", text)]
    assert not missing, f"modules missing from README.md: {missing}"


def code_blocks(lang: str) -> list[str]:
    """The bodies of README's fenced code blocks tagged lang."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_library_example_runs():
    (example,) = code_blocks("python")
    exec(compile(example, str(README), "exec"), {})


def test_readme_config_example_parses():
    (example,) = code_blocks("ini")
    parse_scenario(example, source=str(README))


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    lines = [line for block in code_blocks("sh") for line in block.splitlines()
             if line.startswith("cloee ")]
    assert len(lines) >= 4, lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, (line, capsys.readouterr().err)


def test_readme_names_no_private_name():
    # README is the user's contract: the package's private names belong to
    # their modules' docstrings, which change with the code.
    text = README.read_text()
    named = sorted({name for path in PACKAGE.glob("*.py")
                    for name in module_definitions(path.read_text())
                    if name.startswith("_") and re.search(rf"\b{re.escape(name)}\b", text)})
    assert not named, f"private names in README.md: {named}"


def current_state() -> str:
    """ROADMAP's "Current state": sizes, known reds and one pointer per rule."""
    text = ROADMAP.read_text()
    return text[text.index("**Current state:**"):text.index("**Tier-1 verify:**")]


def test_roadmap_states_the_module_sizes():
    text = current_state()
    sizes = {p.name: p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py")}   # wc -l
    stated = {name: int(lines.replace(",", ""))
              for name, lines in re.findall(r"`(\w+\.py)` ([\d,]+)", text)}
    assert stated == sizes
    (modules, total), = re.findall(r"(\d+) modules and ([\d,]+) lines by\s+`wc -l", text)
    assert (int(modules), int(total.replace(",", ""))) == (len(sizes), sum(sizes.values()))


def test_roadmap_package_names_resolve():
    # A backquoted dotted name that starts with cloee or one of its modules
    # (file names such as `block.py` aside) is a pointer into the package.
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} | {"cloee"}
    names = [name for name in re.findall(r"`([A-Za-z_][\w.]*)`", current_state())
             if name.split(".")[0] in modules and not name.endswith(".py")]
    assert len(names) >= 20, names
    unresolved = []
    for name in names:
        head, *attrs = name.split(".")
        module = importlib.import_module(head if head == "cloee" else f"cloee.{head}")
        try:
            reduce(getattr, attrs, module)
        except AttributeError:
            unresolved.append(name)
    assert not unresolved, f"ROADMAP names that the package lacks: {unresolved}"


def defines(source: str, pointer: list[str]) -> bool:
    """Whether source binds pointer[0] at module level and, for a
    Class::name pointer, defines name in that class's body."""
    head, *rest = pointer
    if head not in module_definitions(source):
        return False
    return not rest or any(isinstance(node, ast.FunctionDef) and node.name == rest[0]
                           for cls in ast.parse(source).body
                           if isinstance(cls, ast.ClassDef) and cls.name == head
                           for node in cls.body)


def test_roadmap_test_pointers_exist():
    pointers = re.findall(r"`tests/(\w+\.py)((?:::[\w.-]+(?:\[[^\]`]*\])?)*)`", current_state())
    assert len(pointers) >= 20, pointers
    missing = []
    for file, names in pointers:
        path = TESTS / file
        pointer = re.sub(r"\[[^\]]*\]", "", names).split("::")[1:]     # parameter ids aside
        if not path.exists() or pointer and not defines(path.read_text(), pointer):
            missing.append(f"tests/{file}{names}")
    assert not missing, f"ROADMAP points to tests that do not exist: {missing}"
