"""Run one benchmark workload against the engine in this checkout.

    python3 perfbench/run.py --workload sku_sparse --seed 1 --seconds 10 --trace 0

Prints each metric with its unit and sample count, then one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Exits nonzero when the engine is not in this checkout's
src/ directory or when any result differs from the serial oracle.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    if not (SRC / "txnrepair" / "__init__.py").is_file():
        print("perfbench: no engine source in src/txnrepair next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import txnrepair

    if Path(txnrepair.__file__).resolve().parent != SRC / "txnrepair":
        print(f"perfbench: imported txnrepair from {txnrepair.__file__}, not from src/",
              file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
