"""`fullgroups selftest` prints exactly the pinned verdict lines.

The golden file `data/selftest.txt` is the command's stdout at the default
seed. Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_selftest_output.py
"""

import contextlib
import io
import pathlib

from fullgroups import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "selftest.txt"


def selftest_stdout(workspace) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--workspace", str(workspace), "selftest"])
    return code, out.getvalue()


def test_selftest_stdout_matches_golden_file(tmp_path):
    code, text = selftest_stdout(tmp_path)
    assert code == 0
    assert text.encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        code, text = selftest_stdout(tmp)
    if code != 0:
        raise SystemExit(f"selftest exited {code}; golden file not written")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(text.encode())
