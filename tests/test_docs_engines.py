"""The engine tables in the docs list exactly the engine registry.

``repro.api.ENGINE_SPECS`` is where an engine name lives; the README's
"Choosing an engine" table and the engine matrix of docs/architecture.md
are where the names are documented.  This keeps them from drifting apart.
"""

import re
from pathlib import Path

from repro.api import ENGINE_SPECS

ROOT = Path(__file__).resolve().parent.parent


def _first_cells(document, heading):
    """The first cell of every table row in the section under ``heading``."""
    text = (ROOT / document).read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\|\s*([^|]*?)\s*\|", section, flags=re.MULTILINE)


def _engine_names(cells):
    """The quoted engine names among ``cells`` (as in `` `"codegen"` ``)."""
    return sorted(
        match.group(1)
        for match in (re.fullmatch(r'`"([\w-]+)"`', cell) for cell in cells)
        if match
    )


def test_readme_engine_table_names_every_registered_engine():
    cells = _first_cells("README.md", "## Choosing an engine")
    assert _engine_names(cells) == sorted(ENGINE_SPECS)


def test_architecture_matrix_names_every_registered_engine():
    cells = _first_cells("docs/architecture.md", "## The engine matrix")
    assert _engine_names(cells) == sorted(ENGINE_SPECS)
    # the interpreted Eraser framework is a kernel with no registry name
    assert "(interpreted)" in cells
