#!/usr/bin/env python3
"""Runs one workload of the MIMIC polystore benchmark.

    python3 perfbench/run.py --workload <browse_mix|ingest_monitor> \
        --seed <n> --seconds <n> --trace <0|1>

Run it from the root of the repository. The first run configures and builds
the benchmark and the BigDAWG libraries it links (perfbench/CMakeLists.txt)
into the directory named by CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild only what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds mimic_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: BigDAWG sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "mimic_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "mimic_bench")


def main(argv):
    binary = build()
    if binary is None:
        return 1
    # The program reads BIGDAWG_* switches (tracing, profiling, placement,
    # cache) from the environment; run it with its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BIGDAWG_")}
    proc = subprocess.Popen([binary] + argv, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main(sys.argv[1:]))
