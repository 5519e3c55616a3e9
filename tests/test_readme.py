"""README's library example runs as written."""

import pathlib
import re

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
