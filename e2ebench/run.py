#!/usr/bin/env python3
"""Builds the simulator and the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload colloc_apollo --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The simulator is configured and built through the repository's own
top-level CMakeLists.txt in Release mode (only its library targets), so a
change to the root build reaches the measured code. The runner is then built
by e2ebench/CMakeLists.txt with the benchmark's fixed flags and linked
against those libraries. Both build trees live under $CARGO_TARGET_DIR
(default .bench_build) in the repository root. The runner runs the workload
in its own process, so each workload's peak RSS and set-up time are its own.

Before the runner's output this prints the program's compile flags. The last
line of stdout is the runner's JSON result:
{"correct", "attempted", "failed", "metrics"}.

Exit status: the runner's (0 when every output was correct, 1 when a check
failed), 1 when the build failed, 2 on bad arguments or a directory that
holds no simulator sources.
"""
import argparse
import glob
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["colloc_apollo", "oversub_paging", "dc_serving"]
REFERENCE = os.path.join(HERE, "reference", "digests.txt")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MAX_SECONDS = 60
# Wall-clock budget of one invocation, build excluded.
RUN_BUDGET_S = 170
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message, status=1):
    sys.stderr.write("e2ebench: %s\n" % message)
    return status


def call_logged(cmd, log_path):
    """Runs a build step with its output in log_path; True on success."""
    with open(log_path, "a") as log:
        log.write("$ %s\n" % " ".join(cmd))
        log.flush()
        ok = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) == 0
    if not ok:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    return ok


def program_targets(build):
    """The simulator's static libraries, from CMake's file API reply.

    Returns (library paths, compile definitions, compile flags text)."""
    reply = os.path.join(build, ".cmake", "api", "v1", "reply")
    index = sorted(glob.glob(os.path.join(reply, "index-*.json")))[-1]
    with open(index) as f:
        objects = json.load(f)["objects"]
    codemodel = next(o for o in objects if o["kind"] == "codemodel")
    with open(os.path.join(reply, codemodel["jsonFile"])) as f:
        configuration = json.load(f)["configurations"][0]
    names, libs, defines, flags = [], [], set(), ""
    for target in configuration["targets"]:
        with open(os.path.join(reply, target["jsonFile"])) as f:
            info = json.load(f)
        source_dir = info["paths"]["source"]
        if info["type"] != "STATIC_LIBRARY" or not (source_dir + "/").startswith("src/"):
            continue
        names.append(info["name"])
        libs.extend(os.path.join(build, a["path"]) for a in info["artifacts"])
        for group in info.get("compileGroups", []):
            defines.update(d["define"] for d in group.get("defines", []))
            if not flags:
                flags = " ".join(x["fragment"] for x in group.get("compileCommandFragments", []))
    return names, sorted(libs), sorted(defines), flags


def build(out_dir):
    """Builds the simulator's libraries and the runner.

    Returns (runner dir, program flags text) or None on failure."""
    program = os.path.join(out_dir, "program")
    runner = os.path.join(out_dir, "runner")
    log_path = os.path.join(out_dir, "build.log")
    query = os.path.join(program, ".cmake", "api", "v1", "query", "codemodel-v2")
    os.makedirs(os.path.dirname(query), exist_ok=True)
    open(query, "a").close()
    if not os.path.exists(os.path.join(program, "CMakeCache.txt")):
        if not call_logged(["cmake", "-S", ROOT, "-B", program, "-DCMAKE_BUILD_TYPE=Release"],
                           log_path):
            return None
    names, libs, defines, flags = program_targets(program)
    if not names or not call_logged(
            ["cmake", "--build", program, "-j", JOBS, "--target"] + names, log_path):
        return None
    if not call_logged(["cmake", "-S", HERE, "-B", runner, "-DE2E_ROOT=" + ROOT,
                        "-DE2E_PROGRAM_LIBS=" + ";".join(libs),
                        "-DE2E_PROGRAM_DEFINES=" + ";".join(defines)], log_path):
        return None
    return runner, flags


def build_target(runner, target, log_path):
    if not call_logged(["cmake", "--build", runner, "-j", JOBS, "--target", target], log_path):
        return None
    return os.path.join(runner, target)


def run_workload(binary, out_dir, args, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return fail("%s timed out after %.0f s" % (args.workload, timeout))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        return fail("%s exited %d without a result" % (args.workload, proc.returncode),
                    proc.returncode or 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0 and --seconds in (0, %d]" % MAX_SECONDS)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        return fail("no simulator sources at %s (CMakeLists.txt and src/ are required)" % ROOT,
                    2)

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    os.makedirs(out_dir, exist_ok=True)
    built = build(out_dir)
    if built is None:
        return fail("build failed, see %s" % os.path.join(out_dir, "build.log"))
    runner, flags = built
    target = "e2e_selftest" if args.selftest else "e2e_runner"
    binary = build_target(runner, target, os.path.join(out_dir, "build.log"))
    if binary is None:
        return fail("build failed, see %s" % os.path.join(out_dir, "build.log"))
    if args.selftest:
        return subprocess.call([binary], cwd=ROOT)
    print("program: root CMakeLists.txt, Release; compile flags: %s" % flags)
    sys.stdout.flush()
    return run_workload(binary, out_dir, args, time.monotonic() + RUN_BUDGET_S)


if __name__ == "__main__":
    sys.exit(main())
