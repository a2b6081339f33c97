"""README's training-configuration table documents ``PhaseConfigs()``: the
same objects, the same fields and the same defaults."""

import dataclasses
import json
import re
from pathlib import Path

from lamlab.training import PhaseConfigs

README = Path(__file__).resolve().parents[1] / "README.md"


def training_table() -> dict[str, dict[str, object]]:
    """{object: {field: default}} of the table under "Training configuration",
    each default read as a JSON value."""
    section = README.read_text(encoding="utf-8").split("### Training configuration", 1)[1]
    section = section.split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\| `(\w+)` +\| [^|]+\| (.+) \|", line)
        if row:
            fields = re.findall(r"`(\w+)` ([^,]+)", row.group(2))
            table[row.group(1)] = {name: json.loads(value) for name, value in fields}
    return table


def test_readme_training_table_matches_phase_configs():
    expected = dataclasses.asdict(PhaseConfigs())
    table = training_table()
    assert set(table) == {"sft", "imitation", "rm", "ppo", "boost"}
    assert table == expected
    # 2 and 2.0 compare equal; the documented default has the field's type too.
    for group, fields in expected.items():
        for name, value in fields.items():
            assert type(table[group][name]) is type(value), (group, name)
