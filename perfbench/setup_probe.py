"""One set-up sample: import ``framescale.cli`` and run one warm-up analysis.

Run as a script in a fresh interpreter (``python3 setup_probe.py SRC``) it
prints the seconds taken, at reference speed (see ``speed.py``);
``measure`` takes the same sample in-process.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

from speed import WINDOW, Speed

WARMUP = ["analyze", "paper/M1", "--exact"]


def measure(src: str) -> float:
    if src not in sys.path:
        sys.path.insert(0, src)
    speed = Speed()
    for _ in range(WINDOW + 1):  # the first sample only warms the kernel
        speed.sample()
    factor = speed.factor()
    start = time.perf_counter()
    import framescale.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = framescale.cli.main(WARMUP)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"warm-up analysis exited {code}")
    return elapsed * factor


if __name__ == "__main__":
    print(repr(measure(sys.argv[1])))
