"""Set-up probe: time a fresh interpreter from ``import weakquasi`` through one cold operation.

Usage: python3 perfbench/probe.py SRC_DIR CONFIG OUT_DIR [REF_DIR TABLE ...]

Prints one JSON line {"elapsed_s": ..., "codes": [...]}.  The caller sets the
BLAS thread variables in the environment and checks the outputs itself.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[1])

import weakquasi.cli  # noqa: E402

from ops import operation  # noqa: E402


def main() -> int:
    config, out_dir = Path(sys.argv[2]), Path(sys.argv[3])
    ref_dir = Path(sys.argv[4]) if len(sys.argv) > 4 else None
    codes = operation(weakquasi.cli.main, config, out_dir, ref_dir, tuple(sys.argv[5:]))
    elapsed = time.perf_counter() - _START
    print(json.dumps({"elapsed_s": elapsed, "codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
