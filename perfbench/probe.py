"""Time one fresh process's set-up: `import nil` plus one warm-up request.

    python3 perfbench/probe.py SRC_DIR WORKLOAD WORKDIR

Prints the seconds taken.  run.py starts it several times and reports the
calibrated median as setup_s; interpreter start-up is not included.
"""

import sys
import time
from pathlib import Path

import workloads


def main():
    src, name, workdir = sys.argv[1:4]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import nil.cli

    workloads.WORKLOADS[name].warmup(nil, Path(workdir))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
