"""Render the CLI goldens under tests/data and rewrite the ones that moved.

    PYTHONPATH=src python3 tests/regen_goldens.py

Each golden is the output of one `gmquantum <argv> --format <fmt>
--no-timestamp` of a verified build.  A change that moves certified
content or a report reruns this, reviews the printed list of changed
files and the diff, and logs each changed field.  `test_cli` compares
the same renderings with the files, so at a clean tree this changes
nothing.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from gmquantum.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "data"
# `<name>.json`: the command line's JSON payload
GOLDEN_PAYLOADS = {
    "gw": ["gw"],
    "matrix": ["matrix"],
    "table": ["table"],
    "presentation": ["presentation"],
    "deform": ["deform"],
    "criterion": ["criterion"],
    "matrix_at_q_3_2": ["matrix", "--at", "q=3/2"],
    "deform_at_q_2_t_1_3": ["deform", "--at", "q=2,t=1/3"],
    "criterion_at_q_-7_3": ["criterion", "--at", "q=-7/3"],
    "criterion_at_q_0": ["criterion", "--at", "q=0"],
}
# `<name>.md`, the markdown rendering: half of the benchmark's report ops
# read it
GOLDEN_MARKDOWN = {
    "verify_all": ["verify-all"],
    "gw": ["gw"],
    "matrix": ["matrix"],
    "table": ["table"],
    "presentation": ["presentation"],
    "deform": ["deform"],
    "criterion": ["criterion"],
    "matrix_at_q_-7_3": ["matrix", "--at", "q=-7/3"],
    "table_at_q_-7_3": ["table", "--at", "q=-7/3"],
    "criterion_at_q_-7_3": ["criterion", "--at", "q=-7/3"],
    "deform_at_q_2_t_1_3": ["deform", "--at", "q=2,t=1/3"],
}


def golden_files():
    """(file name, argv, format) of every golden: `verify_all.json`, which
    `test_cli` reads in tests of its own, then the two tables above."""
    yield "verify_all.json", ["verify-all"], "json"
    for names, fmt, ext in ((GOLDEN_PAYLOADS, "json", ".json"),
                            (GOLDEN_MARKDOWN, "markdown", ".md")):
        for name, argv in sorted(names.items()):
            yield name + ext, argv, fmt


def render(argv, fmt: str) -> bytes:
    """The bytes `gmquantum <argv>` prints in `fmt` without a timestamp;
    raises if the command does not exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv) + ["--format", fmt, "--no-timestamp"])
    if code != 0:
        raise RuntimeError("gmquantum %s exited %d" % (" ".join(argv), code))
    return out.getvalue().encode()


def regenerate(folder: Path = GOLDEN_DIR):
    """Write every golden into `folder`; the file names that changed."""
    changed = []
    for name, argv, fmt in golden_files():
        path = folder / name
        data = render(argv, fmt)
        if not path.is_file() or path.read_bytes() != data:
            path.write_bytes(data)
            changed.append(name)
    return changed


if __name__ == "__main__":
    changed = regenerate()
    print("\n".join("changed: %s" % name for name in changed)
          or "no golden changed")
