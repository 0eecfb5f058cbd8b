#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload suite-lwk --seed 42 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 36 --trace 0

The benchmark executable (perfbench/main.ml) is built with dune from
the sources next to this directory, then run from the repository
root.  Its standard output is passed through unchanged, so the last
line is the result object.  With ``--workload all`` every workload is
run in turn, traced and untimed runs alike.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["suite-linux", "suite-lwk", "engine-j2"]
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("the simulator sources (dune-project, lib/) are missing", 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH", 2)
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        [dune, "build", "--root", ROOT, "-j", "2", "--display", "quiet",
         "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed", 2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    build()
    for w in WORKLOADS if a.workload == "all" else [a.workload]:
        code, out = run(
            [EXE, "--workload", w, "--seed", str(a.seed), "--seconds",
             str(a.seconds), "--trace", str(a.trace)],
            RUN_TIMEOUT_S,
            capture=True,
        )
        sys.stdout.write(out.decode())
        sys.stdout.flush()
        if code != 0:
            fail("%s exited with code %d" % (w, code), code)


if __name__ == "__main__":
    main()
