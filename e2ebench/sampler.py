"""Samples, beside a multi-process workload, its memory and the host's speed.

    python3 e2ebench/sampler.py <pid> <rss 0|1> <yardstick 0|1>

Until its standard input closes, it sums ``VmHWM`` over the live
descendants of *pid* other than itself every 50 ms (with *rss*), and
times one yardstick sample (``yardstick.py``) every 100 ms (with
*yardstick*).  Then it prints one JSON object: the largest sum seen,
in KiB, and the samples, in CPU seconds.
``harness.Sampler`` starts and stops it.
"""

import json
import os
import select
import sys

from harness import descendants_peak_kb
from yardstick import SAMPLE_EVERY_S, sample_s

PERIOD_S = 0.05


def main() -> int:
    root, rss, yardstick = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3] == "1"
    every = max(1, round(SAMPLE_EVERY_S / PERIOD_S))
    peak = 0
    samples = []
    tick = 0
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        if rss:
            peak = max(peak, descendants_peak_kb(root, skip=os.getpid()))
        if yardstick and tick % every == 0:
            samples.append(sample_s())
        tick += 1
    print(json.dumps({"peak_kb": peak, "yardstick": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
