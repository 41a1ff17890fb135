"""Host-speed probe process for the service sweep.

Every ``--interval`` seconds it times the probe loop (``common.probe_seconds``)
and prints ``<perf_counter at the probe's end> <probe seconds>`` on stdout,
until it is terminated.  ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux,
so the stamps compare with the parent's.  The sweep's processes are
mostly waiting on each other, so the probe uses ~3% of one core.

    python3 perfbench/hostprobe.py --interval 0.1
"""

import argparse
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import probe_seconds  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--interval", type=float, default=0.1)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    while True:
        seconds = probe_seconds()
        print(f"{time.perf_counter():.6f} {seconds:.9f}", flush=True)
        time.sleep(args.interval)


if __name__ == "__main__":
    main()
