"""One set-up sample: a fresh interpreter imports `sdfem.cli` and finishes
one N=8 case. The runner times this whole process from outside.

    python3 perfbench/setup_probe.py OUT_FILE
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from sdfem.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", "--N", "8", "--eps", "1e-8", "--format", "json",
                   "--out", sys.argv[1]]))
