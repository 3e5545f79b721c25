#!/usr/bin/env python3
"""Benchmark of the HYDRA pipeline (see BENCHMARK.json at the repo root).

    python3 hydrabench/run.py --workload aqp-e2e --seed 0 --seconds 10 --trace 0

Builds the program and the benchmark from source with sbt (once per source
state; the stamp lives next to the build output), then runs one workload in
a fresh driver JVM.  The JVM prints the run's metrics as a table and, as its
last line, one JSON object; this script prints both, the JSON line last.
Every file the run writes stays inside the checkout and is removed at the
end, except the build output and, with --trace 1, the span log of the traced
operation.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "bench-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "bench-stamp.txt")
WORKLOADS = ("aqp-e2e", "wlc-build", "regen-x100")
DRIVER_HEAP = "6g"
# JVM log output goes to stderr, so that stdout carries only the run's report.
JAVA_OPTS = [f"-Xmx{DRIVER_HEAP}", "-Xlog:disable", "-Xlog:all=warning:stderr"]
# A run must end within 180 s, and the first run of a checkout, which
# builds, within 900 s: build and run time-outs stay under those.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
SBT_OPTS_DEFAULT = ("-Dsbt.override.build.repos=true -Dsbt.repository.config="
                    + os.path.expanduser("~/.sbt/repositories")
                    + " -Dsbt.offline=true -Xmx2g")


CHILD = None  # the subprocess running now, stopped with this script


def log(msg):
    print(f"[hydrabench] {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, **kw):
    """Run `cmd` to completion (killing it on timeout); returns (exit code, stdout)."""
    global CHILD
    CHILD = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, **kw)
    try:
        out, _ = CHILD.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        CHILD.kill()
        CHILD.wait()
        raise SystemExit(f"{cmd[0]} did not finish within {timeout} s")
    finally:
        code, CHILD = CHILD.returncode, None
    return code, out


def stop(signum, _frame):
    if CHILD is not None:
        CHILD.kill()
        CHILD.wait()
    raise SystemExit(f"stopped by signal {signum}")


def spark_home():
    """The Spark distribution whose jars the program compiles and runs against."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise SystemExit("no Spark distribution found: set SPARK_HOME or put spark-submit on PATH")
    return home


def source_stamp():
    """Hash of every input of the build: the program's and the benchmark's sources."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def java_cmd(classpath, run_dir):
    return (["java", *JAVA_OPTS, f"-Djava.io.tmpdir={run_dir}/tmp",
             "-cp", classpath, "hydrabench.Main", "--dir", run_dir])


def fresh_run_dir():
    run_dir = os.path.join(TARGET, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    return run_dir


def build(env):
    """Compile with sbt unless the sources are unchanged; returns the classpath."""
    stamp = source_stamp()
    if os.path.exists(STAMP_FILE) and os.path.exists(CLASSPATH_FILE):
        with open(STAMP_FILE) as f:
            if f.read().strip() == stamp:
                with open(CLASSPATH_FILE) as g:
                    return g.read().strip()
    log("building program and benchmark with sbt")
    sbt_env = dict(env)
    sbt_env.setdefault("SBT_OPTS", SBT_OPTS_DEFAULT)
    sbt_env.setdefault("COURSIER_MODE", "offline")
    code, out = run_child(
        ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
         "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=sbt_env, stderr=subprocess.STDOUT)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        raise SystemExit(f"sbt build failed (exit {code})")
    classpath = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(classpath + "\n")
    with open(STAMP_FILE, "w") as f:
        f.write(stamp + "\n")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        raise SystemExit(f"program sources not found at {PROGRAM_SRC}; "
                         "run from a checkout of the repository")
    env = dict(os.environ, SPARK_HOME=spark_home())
    classpath = build(env)

    run_dir = fresh_run_dir()
    cmd = java_cmd(classpath, run_dir) + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(TARGET, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, cwd=run_dir, env=env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        raise SystemExit(f"benchmark JVM exited with {code} and no result")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
