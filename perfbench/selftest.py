"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py            # everything, about two minutes
    python3 perfbench/selftest.py --quick    # all but the tiny-scale runs

Checks, in order:

* the open-loop generator: a seeded schedule repeats, and a stub server
  that stalls once shows the stall in the latency of the requests that
  were due while it stalled, with the generator's lateness reported;
* ``BENCHMARK.json`` names exactly the metrics the code emits, with the
  same units, and README.md documents every one of them;
* a tiny-scale run of every workload, untraced and traced, prints a
  result line with every metric and its unit, passes its output checks,
  and two traced runs report identical work counts;
* with only ``BENCHMARK.json`` and this directory present (no program
  source), the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.openloop import max_senders, poisson_offsets, run_open_loop  # noqa: E402

WORKLOADS = ("pipeline-exact", "serve-mixed")


def check_open_loop_stall() -> None:
    rng_a, rng_b = np.random.default_rng([7, 1]), np.random.default_rng([7, 1])
    assert np.array_equal(poisson_offsets(200, 50, rng_a), poisson_offsets(200, 50, rng_b))

    stall_s, stall_at = 0.15, 5

    def stub(i: int) -> int:
        if i == stall_at:
            time.sleep(stall_s)
        return i

    offsets = np.arange(40) * 0.01  # one request every 10 ms
    result = run_open_loop(stub, list(range(40)), offsets, senders=1)
    assert result.results == list(range(40)) and not result.errors
    assert result.sent == result.completed == 40
    stall_start = offsets[stall_at]
    behind = [i for i in range(stall_at + 1, 40) if offsets[i] < stall_start + stall_s * 0.8]
    assert len(behind) >= 5, behind
    for i in behind:
        # a request due during the stall waits for the stall to end
        expected = stall_start + stall_s - offsets[i]
        assert result.latency_s[i] >= expected * 0.9, (i, result.latency_s[i], expected)
        assert result.late_s[i] >= expected * 0.9
    quiet = [i for i in range(stall_at) if i > 0]
    assert max(result.latency_s[i] for i in quiet) < stall_s / 3
    assert float(np.max(result.late_s)) >= stall_s * 0.8

    def failing(i: int) -> int:
        if i == 3:
            raise RuntimeError("boom")
        return i

    result = run_open_loop(failing, list(range(8)), np.arange(8) * 0.001, senders=2)
    assert set(result.errors) == {3} and np.isnan(result.latency_s[3])
    assert result.completed == 7 and max_senders() >= 1
    print("ok   open loop: seeded schedule repeats; one stall delays the requests behind it")


def check_schema() -> dict:
    from perfbench.layers import COUNT_METRICS, LAYER_METRICS
    from perfbench.workloads import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == END_TO_END, (e2e, END_TO_END)
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {s.name: (s.unit, s.better) for s in LAYER_METRICS}
    assert set(COUNT_METRICS) <= set(layers)
    readme = (HERE / "README.md").read_text()
    missing = [name for name in [*e2e, *layers] if f"`{name}`" not in readme]
    assert not missing, f"README.md does not document {missing}"
    print(f"ok   schema: {len(e2e)} end-to-end and {len(layers)} per-layer metrics agree")
    return spec


def _run(workload: str, trace: int, seed: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def _result(workload: str, trace: int, seed: int, spec: dict) -> dict:
    code, out = _run(workload, trace, seed)
    assert code == 0, f"{workload} --trace {trace} exited {code}"
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] is True and line["failed"] == 0, line
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == units, (workload, trace, set(got) ^ set(units))
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), (name, m)
        if not trace:
            assert m["value"] > 0, (workload, name, m)
    return line


def check_smoke(spec: dict) -> None:
    from perfbench.layers import COUNT_METRICS

    for workload in WORKLOADS:
        _result(workload, 0, 3, spec)
        first = _result(workload, 1, 3, spec)["metrics"]
        second = _result(workload, 1, 3, spec)["metrics"]
        diff = {
            k: (first[k]["value"], second[k]["value"])
            for k in COUNT_METRICS
            if first[k]["value"] != second[k]["value"]
        }
        assert not diff, f"{workload}: work counts differ between runs: {diff}"
        print(f"ok   {workload}: every metric with its unit; work counts repeat")


def check_without_source() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = _run("pipeline-exact", 0, 1, cwd=bare)
        assert code != 0, "ran without the program's source"
        assert '"metrics"' not in out, out
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   without the program's source: exits non-zero, prints no result")


def main(argv: list[str]) -> int:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    try:
        check_open_loop_stall()
        spec = check_schema()
        check_without_source()
        if "--quick" not in argv:
            check_smoke(spec)
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
