import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"

for path in (BENCH, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
