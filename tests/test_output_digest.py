import hashlib
import importlib.util
import io
import re
import sys
from contextlib import redirect_stdout

import pytest

from conftest import REPO_ROOT

GOLDEN = REPO_ROOT / "tests" / "output_digest.txt"


@pytest.fixture(scope="module")
def digest_lines():
    """The lines ``scripts/output_digest.py`` prints for this checkout."""
    saved = list(sys.path)  # the script puts src/ and perfbench/ in front
    try:
        spec = importlib.util.spec_from_file_location("output_digest", REPO_ROOT / "scripts" / "output_digest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out = io.StringIO()
        with redirect_stdout(out):
            module.main()
    finally:
        sys.path[:] = saved
    return out.getvalue().splitlines()


def test_output_digest_prints_one_masked_line_per_output(digest_lines):
    lines = digest_lines
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    digests = {line[66:]: line[:64] for line in lines}
    assert len(digests) == len(lines)
    # 11 simulates with 8 outputs, 11 analyzes and 32 plans with 3
    assert len(lines) == 11 * 8 + 11 * 3 + 32 * 3
    masked = b"0 hard deadline misses; outputs in <tmp>/runs/conveyor\n"
    assert digests["simulate conveyor stdout"] == hashlib.sha256(masked).hexdigest()
    assert digests["plan fault monte_carlo exit"] == hashlib.sha256(b"0").hexdigest()


def test_output_digest_matches_the_golden_file(digest_lines):
    """Every output is byte-identical to the one recorded in tests/output_digest.txt.

    The digests depend on the toolchain named in the file's header; after a
    Python or NumPy change, read a failure as that first (README, "Tests").
    """
    golden = [line for line in GOLDEN.read_text().splitlines() if not line.startswith("#")]
    expected = {line[66:]: line[:64] for line in golden}
    got = {line[66:]: line[:64] for line in digest_lines}
    differ = sorted(label for label in expected.keys() | got.keys() if expected.get(label) != got.get(label))
    assert not differ, f"outputs differ from {GOLDEN.name}: {differ}"
    assert digest_lines == golden
