"""Time one workload's set-up in this fresh process.

Usage: python3 perfbench/setup_probe.py <workload>

Imports ``contactpairs``, builds each builtin example the workload names once
and loads each of its configs once, then prints the seconds that took.
Interpreter start-up is not counted.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from contactpairs import config, registry
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    for name in workload.examples():
        registry.build_example(name)
    for path in workload.configs():
        config.load_config(str(ROOT / path))
    print(repr(time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
