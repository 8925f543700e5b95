import hashlib
import importlib.util
import re
import sys

from conftest import REPO_ROOT


def test_output_digest_prints_one_masked_line_per_output(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ and perfbench/ in front
    spec = importlib.util.spec_from_file_location("output_digest", REPO_ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    digests = {line[66:]: line[:64] for line in lines}
    assert len(digests) == len(lines)
    # 11 simulates with 8 outputs, 11 analyzes and 32 plans with 3
    assert len(lines) == 11 * 8 + 11 * 3 + 32 * 3
    masked = b"0 hard deadline misses; outputs in <tmp>/runs/conveyor\n"
    assert digests["simulate conveyor stdout"] == hashlib.sha256(masked).hexdigest()
    assert digests["plan fault monte_carlo exit"] == hashlib.sha256(b"0").hexdigest()
