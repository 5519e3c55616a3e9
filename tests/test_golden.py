"""The CLI's reports, stderr and exit codes of every spec fixture, byte
for byte against tests/golden/ (rewritten by `python3
tests/golden_reports.py`)."""

from golden_reports import GOLDEN, golden_files


def test_reports_match_the_golden_files(tmp_path):
    files = golden_files(tmp_path)
    assert sorted(files) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in files.items():
        assert data == (GOLDEN / name).read_bytes(), name
