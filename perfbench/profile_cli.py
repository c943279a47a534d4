"""Per-layer profile of one ``repro`` CLI command, from the benchmark's spans.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/profile_cli.py campaign

wraps the layers listed in ``spans.HOOKS``, runs ``repro <args>`` once
in this process, and prints every layer's calls and busy seconds plus
the stage time no traced layer covers.  This is how the README's
reference split of ``repro campaign`` at CLI defaults was taken.
"""

from __future__ import annotations

import sys
import time

import spans
from repro.cli import main as repro_main


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    t0 = time.perf_counter()
    try:
        code = repro_main(argv)
    finally:
        spans.uninstall(saved)
    wall = time.perf_counter() - t0
    metrics = spans.per_layer(
        tracer, 1, {"process.cpu_s": time.process_time(), "trace.overhead_s": 0.0}
    )
    print(f"repro {' '.join(argv)}: {wall:.1f} s wall")
    for name, metric in metrics.items():
        if metric["value"] and name != "trace.overhead_s":
            print(f"  {name:42s} {metric['value']:12.3f} {metric['unit']}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
