"""README's library example runs as written, and its settings table
matches the CLI's."""

import pathlib
import re

from dwpcheck.specfile import SETTINGS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    *summaries, scalar_gap = capsys.readouterr().out.splitlines()
    assert summaries
    assert {line.split()[0] for line in summaries} <= {"pass", "skip"}
    assert float(scalar_gap) < 1e-12


def test_readme_settings_table_has_one_row_per_setting():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(
        "| setting | `[sampling]` key | flag | default | rule |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert [row[1] for row in rows] == [f"`{key}`" for key in SETTINGS]
    for (_, _, flag, _, rule), setting in zip(rows, SETTINGS.values()):
        assert flag == f"`{setting.flag} {setting.metavar}`"
        assert rule == setting.rule.format(m="m")
