"""One workload process: import stimamp, warm up, then run the seeded cycle.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints ``READY`` once its warm-up command has returned, and ``RESULT
<json>`` when it is done.  One client, one thread, closed loop: each
``stimamp.cli.main(argv)`` call starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing
import workloads

MIN_CYCLES = 5  # runs of every command, of which the fastest is timed
MIN_CYCLES_PER_SIDE = 3  # traced run: traced and untraced cycles each
GRACE_S = 60.0  # how far past --seconds a run may go to reach those minimums
MAX_REPORTED_FAILURES = 5


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers."""


def call_main(cli, argv) -> tuple[int, str, float]:
    """Run ``cli.main(argv)`` with stdout captured; returns (exit code, document, seconds)."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a failed benchmark
        traceback.print_exc()
        code = 1
    return code, buf.getvalue(), perf_counter() - start


class Client:
    """Runs cycles of one workload and checks every output.

    The first run of each operation gets the full check; each later run of
    it must produce the same document bytes.
    """

    def __init__(self, stimamp, ops):
        self.cli, self.fock = stimamp.cli, stimamp.fock
        self.ops = ops
        self.digests: list[str | None] = [None] * len(ops)
        self.runs: list[list[float]] = [[] for _ in ops]  # seconds per run, inf if it failed
        self.attempted = 0
        self.failures: list[str] = []
        self.threshold_rel_err = 0.0

    def _fail(self, index: int, message: str) -> None:
        op = self.ops[index]
        what = " ".join(op.argv)[:120] if isinstance(op, workloads.Command) else repr(op)
        self.failures.append(f"op {index} {what}: {message}")
        self.runs[index][-1] = math.inf

    def run_cycle(self) -> float:
        """Runs every operation once; returns the seconds spent inside stimamp."""
        busy = 0.0
        for index, op in enumerate(self.ops):
            self.attempted += 1
            if isinstance(op, workloads.LiftCheck):
                start = perf_counter()
                lift = self.fock.symmetric_lift(self.fock.rotation2(op.theta))
                ref = self.fock.two_photon_rotation(op.theta)
                elapsed = perf_counter() - start
                busy += elapsed
                self.runs[index].append(elapsed)
                err = float(abs(lift - ref).max())
                if not err <= workloads.EXACT_TOL:
                    self._fail(index, f"symmetric_lift differs from two_photon_rotation by {err!r}")
                continue
            code, text, elapsed = call_main(self.cli, op.argv)
            busy += elapsed
            self.runs[index].append(elapsed)
            if code != 0:
                self._fail(index, f"exit code {code}")
                continue
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests[index] is None:
                try:
                    found = op.check(text)
                except Exception as exc:  # any malformed document is a failed check
                    self._fail(index, f"{type(exc).__name__}: {exc}")
                    continue
                self.digests[index] = digest
                self.threshold_rel_err = max(self.threshold_rel_err, found.get("threshold_rel_err", 0.0))
            elif digest != self.digests[index]:
                self._fail(index, "document bytes changed between runs of the same command")
        return busy

    def command_runs(self) -> list[list[float]]:
        return [runs for runs, op in zip(self.runs, self.ops) if isinstance(op, workloads.Command)]

    def workload_digest(self) -> str:
        docs = [d for d, op in zip(self.digests, self.ops) if isinstance(op, workloads.Command)]
        return hashlib.sha256("\n".join(d or "missing" for d in docs).encode()).hexdigest()


def end_to_end(client: Client, cycles: int) -> tuple[dict, dict]:
    """Timings at each command's fastest run, which the host's slow phases do not reach.

    Every command repeats once per cycle with identical output, so its
    fastest run is its latency on an uncontended core.
    """
    runs = client.command_runs()
    fastest = [min(r) for r in runs]
    commands = [op for op in client.ops if isinstance(op, workloads.Command)]
    cmds_per_s = len(fastest) / sum(fastest)
    pooled = [t for r in runs for t in r]
    metrics = {
        "cmds_per_s": (cmds_per_s, "1/s"),
        "cmd_ms.p50": (statistics.median(fastest) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "cycles": cycles,
        "distinct_commands": len(fastest),
        "shots_per_s": cmds_per_s * sum(op.shots for op in commands) / len(commands),
        "bits_per_s": cmds_per_s * sum(op.bits for op in commands) / len(commands),
        "fail_frac": len(client.failures) / client.attempted,
        "cmd_ms.p90": _p90_ms(fastest),
        "all_runs.cmd_ms.p50": statistics.median(pooled) * 1e3,
        "all_runs.cmd_ms.p90": _p90_ms(pooled),
        "all_runs.cmds_per_s": sum(math.isfinite(t) for t in pooled) / sum(t for t in pooled if math.isfinite(t)),
    }
    return metrics, extra


def _p90_ms(samples: list[float]) -> dict:
    value = tracing.reportable_percentile(samples, 90)
    return {"value": None if value is None else value * 1e3, "samples": len(samples)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(cycles: list[dict], traced_s: list[float], plain_s: list[float], client: Client) -> tuple[dict, dict]:
    """Counts of one cycle and self times of the fastest traced cycle, as in end_to_end."""
    first = cycles[0]
    for other in cycles[1:]:
        for layer in tracing.LAYERS:
            if (other[layer]["calls"], other[layer]["work"]) != (first[layer]["calls"], first[layer]["work"]):
                raise BenchmarkError(f"{layer}: call counts differ between identical cycles")

    def calls(layer):
        return first[layer]["calls"]

    def self_ms(*layers):
        return min(sum(c[layer]["self_s"] for layer in layers) for c in cycles) * 1e3

    shots, bits = first["statistics.monte_carlo_probs"]["work"], first["protocol.transmit"]["work"]
    commands = [op for op in client.ops if isinstance(op, workloads.Command)]
    if shots != sum(op.shots for op in commands) or bits != sum(op.bits for op in commands):
        raise BenchmarkError(f"spans saw {shots} shots and {bits} bits per cycle; the commands hold other amounts")
    mc_self_ms = self_ms("statistics.monte_carlo_probs")
    metrics = {
        "statistics.monte_carlo_probs.shots": (shots, "count"),
        "statistics.monte_carlo_probs.shots_per_s": (_ratio(shots, mc_self_ms / 1e3), "1/s"),
        "amplifier.scatter.calls_per_bit": (_ratio(calls("amplifier.scatter"), bits), "calls/bit"),
        "amplifier.scatter.calls_per_cmd": (_ratio(calls("amplifier.scatter"), calls("cli.main")), "calls/cmd"),
        "fock.self_ms": (self_ms(*(layer for layer in tracing.LAYERS if layer.startswith("fock."))), "ms"),
        "protocol.transmit.bits": (bits, "count"),
        "kinematics.run_loop.calls_per_threshold": (
            _ratio(calls("kinematics.run_loop"), calls("kinematics.violation_threshold")), "calls/threshold"),
        "kinematics.threshold_rel_err.max": (client.threshold_rel_err, "1"),
        "trace_overhead_frac": (min(traced_s) / min(plain_s) - 1.0, "1"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.self_ms"] = (self_ms(layer), "ms")
    extra = {"cycles_traced": len(traced_s), "cycles_untraced": len(plain_s)}
    return metrics, extra


def check_exercised(first_cycle: dict, workload: str, layer_map: dict) -> None:
    if set(layer_map["sites"]) != set(tracing.LAYERS):
        raise BenchmarkError(f"layer_map.json and the tracer differ on {set(layer_map['sites']) ^ set(tracing.LAYERS)}")
    for layer, entry in layer_map["sites"].items():
        if workload in entry["exercised_by"] and first_cycle[layer]["calls"] == 0:
            raise BenchmarkError(f"{layer} got no calls on {workload}, which should exercise it")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = sys.stdout
    src = Path(__file__).resolve().parent.parent / "src"

    import numpy
    import stimamp
    import stimamp.cli

    if src.resolve() not in Path(stimamp.__file__).resolve().parents:
        raise BenchmarkError(f"imported stimamp from {stimamp.__file__}, not from {src}")
    code, _, _ = call_main(stimamp.cli, workloads.WARMUP[args.workload])
    if code != 0:
        raise BenchmarkError(f"warm-up command exited {code}")
    print("READY", file=out, flush=True)
    if args.setup_only:
        return 0

    client = Client(stimamp, workloads.cycle(args.workload, args.seed))
    start = perf_counter()
    hard_stop = start + args.seconds + GRACE_S
    result = {"numpy": numpy.__version__, "stimamp_file": stimamp.__file__}
    if args.trace == 0:
        cycles = 0
        while True:
            client.run_cycle()
            cycles += 1
            now = perf_counter()
            if now - start >= args.seconds and cycles >= MIN_CYCLES:
                break
            if now > hard_stop:
                raise BenchmarkError(f"{cycles} cycles in {now - start:.1f} s; need {MIN_CYCLES}")
        metrics, extra = end_to_end(client, cycles)
    else:
        tracer = tracing.Tracer()
        layer_map = json.loads((Path(__file__).with_name("layer_map.json")).read_text())
        traced_cycles, traced_s, plain_s = [], [], []
        while True:
            # Alternate which side goes first, so drift over the run hits both.
            for traced in (False, True) if len(plain_s) % 2 == 0 else (True, False):
                if traced:
                    with tracer.installed():
                        traced_s.append(client.run_cycle())
                    traced_cycles.append(tracer.take())
                else:
                    plain_s.append(client.run_cycle())
            if len(traced_cycles) == 1:
                check_exercised(traced_cycles[0], args.workload, layer_map)
            now = perf_counter()
            if now - start >= args.seconds and len(traced_s) >= MIN_CYCLES_PER_SIDE:
                break
            if now > hard_stop:
                raise BenchmarkError(f"{len(traced_s)} traced cycles in {now - start:.1f} s")
        metrics, extra = per_layer(traced_cycles, traced_s, plain_s, client)
        extra["bindings"] = tracer.bindings
    result.update(
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        extra=extra,
        measured_s=perf_counter() - start,
        attempted=client.attempted,
        failed=len(client.failures),
        failures=client.failures[:MAX_REPORTED_FAILURES],
        digest=client.workload_digest(),
    )
    print("RESULT " + json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, tracing.SiteError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
