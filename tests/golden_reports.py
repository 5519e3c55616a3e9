"""Golden reports: what `dwpcheck verify` prints for every spec fixture of
tests/test_cli.py (each module-level `*_SPEC` text), kept under
tests/golden/ and compared byte for byte by tests/test_golden.py.

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

# --format value -> file suffix
FORMATS = {"structured": "json", "text": "txt"}


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


def specs():
    """(file stem, spec text) of each module-level `*_SPEC` text of
    test_cli: H3_LINE_FIRST_SPEC is stem h3-line-first."""
    import test_cli

    return [(name[:-len("_SPEC")].lower().replace("_", "-"), text)
            for name, text in sorted(vars(test_cli).items())
            if name.endswith("_SPEC") and isinstance(text, str)]


def golden_files(directory):
    """{file name: bytes} of every golden file, from the current code; the
    specs are written to the directory.  A run's stdout goes to
    <stem>.<suffix>, a nonempty stderr to <stem>.<suffix>.stderr, and
    every exit code to exit_codes.json."""
    files, codes = {}, {}
    for stem, text in specs():
        for fmt, suffix in FORMATS.items():
            file = f"{stem}.{suffix}"
            code, out, err = _verify(
                text, pathlib.Path(directory) / f"{stem}.spec", fmt)
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
