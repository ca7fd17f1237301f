"""stimamp benchmark entry point.

    python3 perfbench/run.py --workload mc_bulk --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The last line of stdout is the result JSON; a copy with the
machine and build context goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, strftime

import selfcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Workload processes timed from spawn to READY: half before the measured one,
# half after, so that the median spans the whole run, not one moment of it.
SETUP_PROBES_EACH_SIDE = 4
DEADLINE_S = 170.0  # the whole run, set-up samples included
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    pass


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stimamp").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context() -> dict:
    return {
        "started": strftime("%Y-%m-%dT%H:%M:%S%z"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "stimamp_source_sha256": source_digest(),
        "thread_env": {name: "1" for name in THREAD_ENV},
    }


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start one workload process; returns (seconds until READY, its remaining stdout)."""
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RunError(f"workload process exited {code} before finishing (see stderr)")
    return setup_s, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RunError(f"unknown workload {args.workload!r}")
    if not (SRC / "stimamp" / "cli.py").is_file():
        raise RunError(f"no stimamp sources under {SRC}")
    selfcheck.run()
    ctx = context()

    probes = SETUP_PROBES_EACH_SIDE if args.trace == 0 else 0
    setup = [spawn(args, deadline, setup_only=True)[0] for _ in range(probes)]
    setup_s, rest = spawn(args, deadline, setup_only=False)
    setup.append(setup_s)
    setup += [spawn(args, deadline, setup_only=True)[0] for _ in range(probes)]
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if len(lines) != 1:
        raise RunError("workload process printed no result")
    worker = json.loads(lines[0][len("RESULT "):])

    metrics = worker["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    wanted = [m["name"] for m in declared]
    if sorted(metrics) != sorted(wanted):
        raise RunError(f"metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json")
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise RunError(f"{m['name']}: unit {metrics[m['name']]['unit']!r}, BENCHMARK.json says {m['unit']!r}")

    summary = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {}).get(str(args.seed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": ctx,
        "numpy": worker["numpy"],
        "stimamp_file": worker["stimamp_file"],
        "setup_samples_s": setup if args.trace == 0 else None,
        "document_sha256": worker["digest"],
        "document_sha256_recorded": recorded,
        "measured_s": worker["measured_s"],
        "failures": worker["failures"],
        "extra": worker["extra"],
        **summary,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for failure in worker["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"result file: {out.relative_to(ROOT)}  document sha256: {worker['digest']}", file=sys.stderr)
    if recorded is not None:
        verdict = "matches" if recorded == worker["digest"] else "DIFFERS FROM"
        print(f"document sha256 {verdict} the one recorded in perfbench/digests.json", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RunError, selfcheck.SelfCheckError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
