"""The tuning guide in ``docs/serving.md`` is the config: its table names
exactly the fields of :class:`ServiceConfig`, so adding or removing a
field touches the docs in the same change."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.service import ServiceConfig

SERVING_DOC = Path(__file__).resolve().parents[2] / "docs" / "serving.md"


def tuning_table_names(text: str) -> set:
    """Every backticked name in the first column of the tuning table."""
    section = text.split("\n## Tuning guide\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            names.update(re.findall(r"`(\w+)`", first_cell))
    return names


def test_tuning_table_lists_every_service_config_field():
    names = tuning_table_names(SERVING_DOC.read_text(encoding="utf-8"))
    fields = {field.name for field in dataclasses.fields(ServiceConfig)}
    assert names == fields, (
        f"missing from the table: {sorted(fields - names)}; "
        f"not config fields: {sorted(names - fields)}"
    )
