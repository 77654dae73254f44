#!/usr/bin/env python3
"""Build and run the k-VCC benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
or `perfbench/target`, prints the host record, runs one workload pinned to
one CPU, and relays its report. The last line of standard output is the
JSON result. The metric names and units are checked against
`BENCHMARK.json` before the result is printed. Any build, check or run
failure exits non-zero without a result line.

The workload runs on one CPU because the program's work is single-threaded
and the host may give two vCPUs only one core's worth of time: unpinned,
the serving workload's client and server threads land on different vCPUs
and every round trip pays a cross-vCPU wake-up whose cost swings from run
to run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def host_record():
    """rustc version and the commit of the checkout, when it is a git tree."""
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return rustc, commit


def check_metrics(result, spec, trace):
    """The result must carry exactly the declared metrics, with their units."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            fail(f"result lacks {key}")
    if result["attempted"] < 1:
        fail("no operation was attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")

    rustc, commit = host_record()
    print(f"host: rustc={rustc!r} commit={commit}")
    # nproc and the effective core count, measured before pinning.
    try:
        host = subprocess.run([binary, "--host"], stdout=subprocess.PIPE,
                              text=True, timeout=60)
    except subprocess.TimeoutExpired:
        fail("the host record did not finish within 60s")
    if host.returncode != 0:
        fail(f"the host record exited with code {host.returncode}")
    print(host.stdout.strip())
    cpu = min(os.sched_getaffinity(0))
    print(f"pinned: cpu {cpu}")
    work_dir = os.path.join(target, "perfbench-work", str(os.getpid()))
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"the run exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the run printed no result line")
    check_metrics(result, spec, args.trace == "1")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
