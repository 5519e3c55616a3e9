"""Golden reports: what `dwpcheck verify` prints for a few spec fixtures of
tests/test_cli.py, kept under tests/golden/ and compared byte for byte by
tests/test_golden.py.

    python3 tests/golden_reports.py

rewrites every file under tests/golden/ from the current code.  Each spec
is written to a temporary file, whose path is the one part of a report
that differs from run to run; the files hold SPEC_PATH in its place.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SPEC_PATH = "SPEC_PATH"

# (file stem, name of the spec text in test_cli)
SPECS = (
    ("passing", "PASSING_SPEC"),
    ("failing", "FAILING_SPEC"),
    ("quasi-einstein-zero-beta", "QUASI_EINSTEIN_ZERO_BETA_SPEC"),
    ("h3-cosh-line-first", "H3_COSH_LINE_FIRST_SPEC"),
    ("s3-fibre-first", "S3_FIBRE_FIRST_SPEC"),
)
# --format value -> file suffix; the malformed spec fails before any report
FORMATS = {"structured": "json", "text": "txt"}
MALFORMED = ("malformed", "MALFORMED_SPEC")


def _verify(text, path, fmt):
    """(exit code, stdout, stderr) of `dwpcheck verify` on the spec text,
    written to path, with SPEC_PATH in place of the path."""
    from dwpcheck.cli import main

    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--format", fmt])
    return code, *(s.getvalue().replace(str(path), SPEC_PATH)
                   for s in (out, err))


def golden_files(directory):
    """{file name: bytes} of every golden file, from the current code; the
    specs are written to the directory.  A run's stdout goes to
    <stem>.<suffix>, a nonempty stderr to <stem>.<suffix>.stderr, and
    every exit code to exit_codes.json."""
    import test_cli

    runs = [(stem, name, fmt, f"{stem}.{suffix}")
            for stem, name in SPECS for fmt, suffix in FORMATS.items()]
    runs.append((*MALFORMED, "text", MALFORMED[0]))
    files, codes = {}, {}
    for stem, name, fmt, file in runs:
        code, out, err = _verify(getattr(test_cli, name),
                                 pathlib.Path(directory) / f"{stem}.spec",
                                 fmt)
        codes[file] = code
        if out:
            files[file] = out.encode("utf-8")
        if err:
            files[f"{file}.stderr"] = err.encode("utf-8")
    files["exit_codes.json"] = (json.dumps(codes, indent=2, sort_keys=True)
                                + "\n").encode("utf-8")
    return files


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = golden_files(tmp)
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        if stale.name not in files:
            stale.unlink()
    for name, data in sorted(files.items()):
        (GOLDEN / name).write_bytes(data)
        print(f"wrote {GOLDEN.name}/{name} ({len(data)} bytes)")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    main()
