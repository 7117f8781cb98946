#!/usr/bin/env python3
"""End-to-end benchmark of harmgerm: reduction, certification and the CLI.

    python3 perfbench/run.py --workload reduce|certify|cli --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. With
--trace 0 the run measures set-up, then runs whole cycles of the
workload's mix as a closed loop (one caller, no threads), as many as
take S seconds on the reference machine, and prints the end-to-end
metrics. With --trace 1 it runs
a fixed number of cycles with every library layer wrapped, replays them
unwrapped, and prints the per-layer metrics. Every output is checked by
the library's exact verification and against perfbench/digests.json.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()  # set-up samples are timed from here, in a fresh interpreter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
PROBE_TIMEOUT_S = 60
TIMED, WARMUP = 0, 1  # instance streams: timed operations and untimed warm-ups

sys.path.insert(0, str(SRC))
from spans import LAYER_METRICS, Recorder, layer_values, write_spans  # noqa: E402
from speed import SpeedLog  # noqa: E402
from stats import TAIL_BEYOND, tail_latency  # noqa: E402

# End-to-end metrics of an untraced run: (name, unit, better).
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("latency_p50_ms.kmin", "ms", "lower"),
    ("latency_p50_ms.kmax", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(harmgerm) -> dict:
    """What the numbers depend on; runs with different backends are never compared."""
    return {
        "backend": harmgerm.active_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


class Session:
    """Runs operations one at a time and keeps the correctness tally.

    An operation fails if it raises, its exact verification is false
    (verified/ok False, exit code non-zero), or its output's SHA-256
    differs from the recorded one or from an earlier run of the same
    instance in this process.
    """

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.recorder = None  # a Recorder while a traced phase runs
        self.root = ROOT
        self.shim = HERE / "cli_shim.py"
        self.child_record = OUT / "cli-child.json"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}

    def run_op(self, inst, op, index=None):
        """Time one operation; returns (latency seconds, ok). `index` keys the timed stream's digests."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.op = op
        start = perf_counter()
        try:
            result = self.workload.call(inst, self)
        except Exception as exc:  # a failed operation is counted, the run goes on
            latency = perf_counter() - start
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return latency, False
        finally:
            if self.recorder is not None:
                self.recorder.op = None
        latency = perf_counter() - start
        if self.recorder is not None and self.child_record.exists():
            self.recorder.merge(json.loads(self.child_record.read_text()), op)
            self.child_record.unlink()
        output, ok = self.workload.outcome(result)
        if not ok:
            self._fail(op, "exact verification failed")
            return latency, False
        if index is not None:
            sha = digest(output)
            known = self.digests.setdefault(index, sha)
            recorded = self.expected[index] if index < len(self.expected) else None
            if sha != known or (recorded is not None and sha != recorded):
                self._fail(op, "output digest mismatch")
                return latency, False
        return latency, True

    def _fail(self, op, why):
        self.failed += 1
        self.errors.append(f"op {op} ({self.workload.name}): {why}")


def warm_up(session, workload, seed, instances=None):
    for j in range(workload.warmups):
        inst = instances[j] if instances else workload.instance(seed, WARMUP, j)
        session.run_op(inst, f"warmup-{j}")


CLI_IMPORT_PROBE = "from time import perf_counter as t; s = t(); import harmgerm.cli; print(t() - s)"


def setup_samples(workload, seed, env, speed, own=None) -> list[float]:
    """Set-up times of fresh interpreters, `workload.setup_samples` of them.

    A sample runs from the start of run.py through `import harmgerm` and
    the warm-up; the benchmark process itself gives the first one
    (`own`), and each probe child prints its own. For the cli workload
    a sample is the cold import of harmgerm.cli alone, since every call
    of that workload starts cold.
    """
    if workload.in_children:
        argv = [sys.executable, "-c", CLI_IMPORT_PROBE]
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--seed", str(seed), "--setup-probe"]
    samples = [] if own is None else [own]
    while len(samples) < workload.setup_samples:
        speed.sample()
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def cycles_for(workload, seconds) -> int:
    """Whole cycles that last about `seconds` on the reference machine, enough for a tail."""
    needed = -(-(TAIL_BEYOND + 1) // workload.cycle)
    return max(needed, round(seconds / workload.nominal_cycle_s))


def timed_run(session, workload, seed, seconds, speed):
    """The timed phase: a fixed number of whole cycles of the mix, one operation at a time.

    The count depends only on `seconds`, not on how fast this machine
    or commit is, so two runs always pool the same operations and the
    tail rule always picks the same rank.
    """
    samples = []
    for index in range(cycles_for(workload, seconds) * workload.cycle):
        inst = workload.instance(seed, TIMED, index)
        speed.sample()
        latency, ok = session.run_op(inst, index, index)
        samples.append((inst.label, latency, ok))
    return samples


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(session, workload, seed, seconds):
    """End-to-end values at reference speed (see speed.py), with the raw ones in the details."""
    speed = SpeedLog()
    own = None
    if workload.warmups:
        warm_up(session, workload, seed)
        own = perf_counter() - STARTED
    setup = setup_samples(workload, seed, session.env, speed, own)
    samples = timed_run(session, workload, seed, seconds, speed)
    lat_ms = [latency * 1e3 for _, latency, _ in samples]
    by_label: dict[str, list[float]] = {}
    for (label, _, _), ms in zip(samples, lat_ms):
        by_label.setdefault(label, []).append(ms)
    tail, percentile, count = tail_latency(lat_ms)
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": sum(ok for *_, ok in samples) / sum(latency for _, latency, _ in samples),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail,
        "latency_p50_ms.kmin": statistics.median(by_label[workload.kmin]),
        "latency_p50_ms.kmax": statistics.median(by_label[workload.kmax]),
    }
    factor = speed.factor()
    values = {name: value * factor for name, value in raw.items()}
    values["ops_per_s"] = raw["ops_per_s"] / factor
    values["peak_rss_mb"] = peak_rss_mb(workload)
    details = {
        "raw": raw,
        "speed_factor": factor,
        "setup_samples_s": setup,
        "tail": {"percentile": percentile, "samples": count},
        "kmin": workload.kmin,
        "kmax": workload.kmax,
        "raw_p50_ms_by_label": {label: statistics.median(v) for label, v in sorted(by_label.items())},
        "samples_by_label": {label: len(v) for label, v in sorted(by_label.items())},
        "ops": [[label, ms] for (label, _, _), ms in zip(samples, lat_ms)],
    }
    return values, details


def traced(session, workload, seed, import_s):
    """Per-layer metrics over trace_cycles wrapped cycles, then the same cycles unwrapped."""
    warm = [workload.instance(seed, WARMUP, j) for j in range(workload.warmups)]
    timed = [workload.instance(seed, TIMED, i) for i in range(workload.trace_cycles * workload.cycle)]
    recorder = Recorder()
    in_process = not workload.in_children
    if in_process:
        recorder.import_times.append(import_s)
        recorder.install()
    session.recorder = recorder
    warm_up(session, workload, seed, warm)
    wrapped = [session.run_op(inst, i, i) for i, inst in enumerate(timed)]
    if in_process:
        recorder.uninstall()
    session.recorder = None
    plain = [session.run_op(inst, i, i) for i, inst in enumerate(timed)]

    def rate(results):
        return sum(ok for _, ok in results) / sum(latency for latency, _ in results)

    values = layer_values(recorder)
    values["trace.ops_per_s_delta"] = rate(wrapped) - rate(plain)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl"
    write_spans(spans_path, recorder.spans)
    details = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(recorder.spans),
        "ops_per_s_traced": rate(wrapped),
        "ops_per_s_untraced": rate(plain),
    }
    return values, details


def record_digests(workload, seed, session) -> None:
    """Store this run's per-instance output digests as the reference for its seed."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    seeds = table.setdefault(workload.name, {})
    old = seeds.get(str(seed), [])
    new = [session.digests[i] for i in sorted(session.digests)]
    if old[: len(new)] != new[: len(old)]:
        raise RuntimeError(f"digests for {workload.name} seed {seed} disagree with the recorded ones")
    seeds[str(seed)] = max(old, new, key=len)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reduce", "certify", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="after a run without failures, store its output digests in perfbench/digests.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "harmgerm" / "__init__.py").is_file():
        print(f"perfbench: no harmgerm sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    import harmgerm

    import_s = perf_counter() - start
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        probe = Session(workload, [])
        warm_up(probe, workload, args.seed)
        print(perf_counter() - STARTED)
        return 0 if probe.failed == 0 else 1

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected = table.get(workload.name, {}).get(str(args.seed), [])
    session = Session(workload, expected)
    env = environment(harmgerm)
    if args.trace:
        values, details = traced(session, workload, args.seed, import_s)
        defs = LAYER_METRICS
    else:
        values, details = end_to_end(session, workload, args.seed, args.seconds)
        defs = E2E_METRICS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in defs}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "digests_recorded": len(expected),
        "attempted": session.attempted,
        "failed": session.failed,
        "fail_ratio": session.failed / session.attempted,
        "errors": session.errors,
        "metrics": metrics,
        "details": details,
        "output_digests": [session.digests[i] for i in sorted(session.digests)],
    }
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if args.record_digests and session.failed == 0:
        record_digests(workload, args.seed, session)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} record={record_path.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"  times above are raw times x {details['speed_factor']:.4f}, at reference speed (perfbench/speed.py)")
        tail = details["tail"]
        print(f"  latency_tail_ms is the p{tail['percentile']:.1f} of {tail['samples']} samples")
        for label, p50 in details["raw_p50_ms_by_label"].items():
            print(f"  raw p50 {label} = {p50:.6g} ms over {details['samples_by_label'][label]} samples")
    print(
        f"  fail_ratio = {session.failed}/{session.attempted}"
        f" (digests recorded for {len(expected)} instances of this seed)"
    )
    for error in session.errors[:10]:
        print(f"  FAILED {error}")
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
