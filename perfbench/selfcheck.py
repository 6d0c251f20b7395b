"""Self-check of the benchmark harness, in well under a minute:

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against the benchmark contract, runs every workload
run.py defines at tiny size, untraced and traced, and validates the result
line against the declared metrics.  Then checks that one seed always gives
the same result, and that the benchmark refuses to run in a directory
holding only BENCHMARK.json and perfbench/.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SelfCheckError(Exception):
    pass


def require(cond, detail) -> None:
    if not cond:
        raise SelfCheckError(detail)


def check_spec(spec: dict) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, f"top-level keys {sorted(spec)}")
    require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
            "run_seconds must be a whole number in 1..60")
    require(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    require(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    require(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200
                and "\n" not in w["why"], f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"}
                and 0 < m["bound"] <= 0.25, f"end-to-end metric {m}")
    for m in spec["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, f"per-layer metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), f"metric {m}")
        names.append(m["name"])
    require(all(NAME.match(n) for n in names),
            f"bad names {[n for n in names if not NAME.match(n)]}")
    require(len(names) == len(set(names)), "names must be unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
            "setup_s must be declared in s, lower is better")
    require(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
            "setup_s must have the largest bound")
    require(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024,
            "BENCHMARK.json exceeds 64 KiB")


def run_bench(spec, cwd, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", "1", "--trace", str(trace), "--tiny"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, proc, trace) -> dict:
    require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0,
            f"incorrect run: {proc.stderr[-2000:]}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"attempted = {result['attempted']!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    require(got == declared, f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(got))} "
            f"{sorted(k for k in got if got[k] != declared.get(k))}")
    for k, v in result["metrics"].items():
        require(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                f"{k} = {v['value']!r}")
    return result


def check_bare_directory(spec) -> None:
    """Outside a checkout (no src/) the benchmark must fail without a result."""
    bare = os.path.join(ROOT, ".perfbench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(spec, bare, spec["workloads"][0]["name"], 1, 0)
        require(proc.returncode != 0, "ran without the dro_crm sources")
        require('"correct"' not in proc.stdout, f"printed a result: {proc.stdout[-500:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    declared = [w["name"] for w in spec["workloads"]]
    require(set(declared) <= set(WORKLOADS), f"undefined workloads in {declared}")
    for name in WORKLOADS:  # undeclared workloads too, so they do not rot
        for trace in (0, 1):
            check_result(spec, run_bench(spec, ROOT, name, 3, trace), trace)
            print(f"selfcheck: {name} trace={trace} ok")
    first = spec["workloads"][0]["name"]
    again = [check_result(spec, run_bench(spec, ROOT, first, 3, 0), 0)["metrics"]
             for _ in range(2)]
    require(again[0]["expected_loss"] == again[1]["expected_loss"], "seed is not reproducible")
    print("selfcheck: same seed, same result ok")
    check_bare_directory(spec)
    print("selfcheck: refuses to run outside a checkout ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
