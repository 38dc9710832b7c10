"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SRC_DIR [DATA_FILE]

Prints one JSON object: `import_s` is `import cnflearn` (numpy included,
as a user of the CLI pays it) and `calls_s` is one call to each public
set-up function the workload's runs depend on. run.py starts this several
times per run and reports the median of the sums as `setup_s`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(argv) -> int:
    workload, src = argv[1], argv[2]
    data = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, src)
    t0 = perf_counter()
    import cnflearn

    t1 = perf_counter()
    import workloads

    t2 = perf_counter()
    workloads.WORKLOADS[workload].setup_calls(cnflearn, data)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "calls_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
