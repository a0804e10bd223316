import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# design: circuits, growing, plateaued, verdict
REPRODUCE_1Q_ROWS = {
    "robust-full": (2350, 25, 6, "OK"),
    "robust-per-germ": (437, 25, 6, "OK"),
    "standard-full": (1064, 24, 7, "deficient"),
    "standard-random-0.125": (202, 17, 14, "deficient"),
    "bare-full": (790, 17, 14, "deficient"),
}


def test_reproduce_1q_certification_keeps_every_verdict(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_1q_certification.py"), "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    table = out[out.index("\ndesign ") :].splitlines()[2:]
    rows = {}
    for line in table[: len(REPRODUCE_1Q_ROWS)]:
        name, circuits, growing, plateaued, verdict = line.split()[:5]
        rows[name] = (int(circuits), int(growing), int(plateaued), verdict)
    assert rows == REPRODUCE_1Q_ROWS
    for name in REPRODUCE_1Q_ROWS:
        assert (tmp_path / f"{name}.json").is_file() and (tmp_path / f"{name}-report.json").is_file()
