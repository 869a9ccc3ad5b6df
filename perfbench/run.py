#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default: .bench_build at the root). The
last line of standard output is the result object; the line before it
records the host and build the result was measured on.
"""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A run must end within 180 s; the first build may take 900 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Trees the source digest covers, relative to the root.
SOURCE_TREES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it; on timeout
    the whole group (cargo's rustc children too) is killed and reaped."""
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = run_group(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the paths and bytes of every source file built."""
    h = hashlib.sha256()
    files = []
    for tree in SOURCE_TREES:
        path = os.path.join(ROOT, tree)
        if os.path.isfile(path):
            files.append(tree)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            rel = os.path.relpath(dirpath, ROOT)
            files.extend(os.path.join(rel, f) for f in filenames)
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_info():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def run_binary(binary, args):
    try:
        return run_group([binary] + args, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")


def bench(binary, args):
    done = run_binary(binary, args)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no result line (exit {done.returncode})")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host_info()}))
    print(lines[-1], flush=True)
    return done.returncode


def selftest(binary):
    """Short cut of every workload: the driver must reproduce
    Scenario::run, and both modes must emit exactly the metrics
    BENCHMARK.json names, with its units and allowed characters."""
    done = run_binary(binary, ["--selftest"])
    try:
        report = json.loads(done.stdout.splitlines()[-1])["selftest"]
    except (IndexError, KeyError, json.JSONDecodeError):
        fail("self-test printed no report")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    ran = [w["workload"] for w in report]
    if declared != ran:
        problems.append(f"workloads {ran} != BENCHMARK.json {declared}")
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                problems.append(f"{section} {m['name']!r} [{m['unit']!r}]: bad characters")
    for w in report:
        if not w["passed"]:
            problems.append(f"{w['workload']}: driver checks failed")
        for section in ("end_to_end", "per_layer"):
            want = sorted((m["name"], m["unit"]) for m in spec[section])
            got = sorted(tuple(x) for x in w[section])
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                problems.append(f"{w['workload']} {section}: missing {missing}, extra {extra}")
    for p in problems:
        print(f"selftest: {p}")
    print(f"selftest: {'ok' if not problems and done.returncode == 0 else 'FAILED'}")
    return 0 if not problems and done.returncode == 0 else 1


def main():
    args = sys.argv[1:]
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("run from a checkout of the repository (no crates/ next to perfbench/)")
    binary = build()
    sys.exit(selftest(binary) if args == ["--selftest"] else bench(binary, args))


if __name__ == "__main__":
    main()
