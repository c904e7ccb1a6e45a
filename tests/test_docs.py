import re
import shlex
from pathlib import Path

import cloee
from cloee import parse_scenario
from cloee.cli import main
from test_public_surface import module_definitions

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_documents_every_public_name():
    # cloee.__all__ is the library the README documents.
    text = README.read_text()
    missing = [name for name in cloee.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not missing, f"public names missing from README.md: {missing}"


def test_readme_names_every_module():
    # The README's Layout block lists each module of the package.
    text = README.read_text()
    package = Path(cloee.__file__).resolve().parent
    missing = [p.name for p in sorted(package.glob("*.py"))
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
    package = Path(cloee.__file__).resolve().parent
    named = sorted({name for path in package.glob("*.py")
                    for name in module_definitions(path.read_text())
                    if name.startswith("_") and re.search(rf"\b{re.escape(name)}\b", text)})
    assert not named, f"private names in README.md: {named}"
