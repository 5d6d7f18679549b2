"""Run one geopost benchmark workload and print its metrics.

    python3 perfbench/run.py --workload city-g8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The program under test is the
``geopost`` package in ``src/`` of the checkout this file sits in.
"""

import os
import sys
from pathlib import Path

# One workload per process, single-threaded: keep BLAS from starting
# worker threads. This has to happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    if not (_SRC / "geopost" / "__init__.py").is_file():
        print(f"error: no geopost package under {_SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(_SRC))
    import bench

    sys.exit(bench.main())
