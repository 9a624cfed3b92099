"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints one JSON line with ``setup_s`` (import measopt, generate the
inputs, warm up), the same rescaled to the reference host speed
(``reference_s``) and ``inputs_sha256``.  ``run.py`` starts it so that
the set-up time includes the cost of importing the package.
"""
import json
import sys
from pathlib import Path

import run


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    _, wl, seconds = run.timed_setup(workload, seed, workdir)
    print(json.dumps({"setup_s": seconds, "reference_s": run.setup_reference_s(seconds),
                      "inputs_sha256": wl.digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
