"""The campaign knob table in docs/resilience.md lists exactly the config fields.

``CampaignConfig`` is the one place a campaign knob lives, and the
"Knobs and observability" table is the one place it is documented; every
other page links there.  This keeps the two from drifting apart.
"""

import re
from dataclasses import fields
from pathlib import Path

from repro.sim.parallel import CampaignConfig

RESILIENCE = Path(__file__).resolve().parent.parent / "docs" / "resilience.md"


def _knob_table_fields():
    """The backticked first cell of every row of the knob table."""
    text = RESILIENCE.read_text(encoding="utf-8")
    section = text.split("## Knobs and observability", 1)[1].split("\n## ", 1)[0]
    return [
        match.group(1)
        for match in re.finditer(r"^\|\s*`(\w+)`\s*\|", section, flags=re.MULTILINE)
    ]


def test_every_config_field_is_in_the_knob_table():
    documented = _knob_table_fields()
    assert len(documented) == len(set(documented)), "a field is tabled twice"
    assert set(documented) == {field.name for field in fields(CampaignConfig)}
