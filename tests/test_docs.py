import re
from pathlib import Path

import cloee

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
