"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload pipeline-exact --seed 1 --seconds 45 --trace 0

Run from the repository root: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The line before
it is a summary with the workload-specific numbers.  ``--seconds`` is
the window the pipeline workloads repeat in; ``serve-mixed`` always
serves its fixed rate ladder (about 15 s).  ``--smoke`` shrinks every
size for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline-exact", "serve-mixed")
#: BLAS thread pools are pinned to one thread before numpy loads.  On a
#: two-CPU box shared with other work, a multi-threaded OpenBLAS made a
#: 400x400 matmul 3-8x slower and erratic from run to run; pinned, the
#: whole run is serial, like the serial executor it measures.  The
#: program's default threading is kept in view by pipeline-exact's
#: ``pipeline_s_default_blas`` (see blas.py).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if "numpy" in sys.modules:
        print("perfbench: numpy was loaded before the BLAS pin", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import Sizes, run_workload

    sizes = Sizes.smoke() if args.smoke else Sizes()
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), sizes, ROOT)
    for problem in report.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **report.summary_line()}, default=str))
    print(json.dumps(report.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
