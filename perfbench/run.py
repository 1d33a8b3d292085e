"""chromarect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

One invocation measures one workload in this fresh, single-threaded
process: a closed loop with one client runs the workload's pipeline
again and again until ``--seconds`` of timed pipeline have passed (at
least once), checks every operation with its oracle outside the timed
region, and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics: ``ref_wall_s`` (median
pipeline wall time, rescaled to a reference CPU speed by the interleaved
probes of ``speed.SpeedClock``), ``peak_rss_mb`` (high-water RSS of this
process at the end of the first pipeline) and ``setup_s`` (median, over
several fresh processes, of the time from spawning the process to the end
of its seeded input generation, rescaled by probes in that process).  The
plain times are in the line before the result.  ``--trace 1`` wraps the
program's layer functions in spans and reports the per-layer metrics of
``layers.METRICS`` instead.

Every operation's output is hashed; a run fails when a repeat within the
run, or an earlier run of the same program source with the same seed,
produced different bytes.  The run exits 1, still printing its result,
when any operation failed.

``--all`` runs every workload untraced and traced, each in its own
process, one at a time, and prints a summary with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from program import ROOT, Program  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, rss_mb  # noqa: E402
from workloads import WORKLOADS, Aborted, OpLog  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_out"
STATE = ROOT / ".perfbench_state" / "digests.json"
SETUP_PROBES = 9
END_TO_END = {"ref_wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
READY = "perfbench-setup-ready"


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Workdir:
    """``inputs/`` and ``out/`` under the checkout, removed on exit."""

    def __init__(self, label: str):
        self.root = WORK_ROOT / f"{label}-{os.getpid()}"
        self.inputs = self.root / "inputs"
        self.out = self.root / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def fresh_out(self) -> Path:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        return self.out

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def probe_setup(workload: str, seed: int) -> None:
    """Body of a set-up probe process: import, generate inputs, report the
    CPU speed probes taken before and after and the time they took."""
    t0 = perf_counter()
    before = speed.probe()
    spent = perf_counter() - t0
    prog = Program()
    work = Workdir(f"probe-{workload}")
    try:
        WORKLOADS[workload](prog).setup(seed, work.inputs)
        t0 = perf_counter()
        after = speed.probe()
        spent += perf_counter() - t0
        print(READY, spent, before, after, flush=True)
    finally:
        work.remove()


def setup_seconds(workload: str, seed: int) -> tuple:
    """Spawn-to-ready times of fresh set-up processes, run one at a time:
    ``(raw, ref)``, where ``ref`` leaves out each process's speed probes
    and rescales the rest by them, as ``speed.rescale`` does."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().split()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if len(line) != 4 or line[0] != READY or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
        spent, before, after = map(float, line[1:])
        raw.append(elapsed - spent)
        ref.append(raw[-1] * (speed.NOMINAL_PROBE_S / before + speed.NOMINAL_PROBE_S / after) / 2)
    return raw, ref


def check_determinism(key: str, digests: list) -> list:
    """Compare with the digests recorded for ``key`` by an earlier run,
    recording them if none were; returns the indices that differ."""
    known = {}
    if STATE.is_file():
        known = json.loads(STATE.read_text())
    if key not in known:
        known[key] = digests
        STATE.parent.mkdir(parents=True, exist_ok=True)
        tmp = STATE.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
        os.replace(tmp, STATE)
        return []
    old = known[key]
    if len(old) != len(digests):
        return list(range(len(digests)))
    return [i for i, (a, b) in enumerate(zip(old, digests)) if a != b]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    prog = Program()
    workload = WORKLOADS[name](prog)
    work = Workdir(name)
    tracer = Tracer()
    try:
        inputs = workload.setup(seed, work.inputs)
        if trace:
            layers.install(tracer, prog)
        walls, ref_walls, cpus, probe_s = [], [], [], []
        attempted = failed = 0
        check_s = 0.0
        errors = []
        first_digests = None
        peak = artifact_mb = None
        while True:
            log = OpLog(prog, work.fresh_out())
            cpu0 = cpu_seconds()
            if trace:
                t0 = perf_counter()
                try:
                    workload.pipeline(inputs, log)
                except Aborted:
                    pass
                walls.append(perf_counter() - t0)
            else:
                with speed.SpeedClock() as clock:
                    try:
                        workload.pipeline(inputs, log)
                    except Aborted:
                        pass
                walls.append(clock.raw_s)
                ref_walls.append(clock.ref_s)
                probe_s += [p[2] for p in clock.probes]
            cpus.append(cpu_seconds() - cpu0)
            if peak is None:
                peak = rss_mb()
            t_check = perf_counter()
            log.verify()
            digests = log.digests()
            if first_digests is None:
                first_digests = digests
                artifact_mb = log.artifact_bytes() / 1e6
                # The workloads' source makes the inputs, so it is part of the key.
                inputs_src = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()
                key = f"{prog.fingerprint()}:{inputs_src}:{name}:{seed}"
                mismatched = check_determinism(key, digests)
            else:
                mismatched = [i for i, (a, b) in enumerate(zip(first_digests, digests)) if a != b]
            for i in mismatched:
                if i < len(log.ops) and not log.ops[i].error:
                    log.ops[i].error = "output differs from an earlier run with this seed"
            bad = log.failed()
            attempted += len(log.ops)
            failed += len(bad)
            errors += [f"{op.name}: {op.error}" for op in bad]
            check_s += perf_counter() - t_check
            if bad or sum(walls) >= seconds:
                break
        del inputs, log
    finally:
        tracer.restore()
        work.remove()

    info = {
        "workload": name,
        "seed": seed,
        "samples": len(walls),
        "wall_s_runs": walls,
        "ref_wall_s_runs": ref_walls,
        "cpu_s_runs": cpus,
        "check_s": check_s,
        "artifact_mb": artifact_mb,
        "failed_frac": failed / attempted,
        "errors": errors[:20],
    }
    if trace:
        metrics = layers.metrics(tracer.spans, len(walls), sum(walls), sum(cpus), artifact_mb)
        units = layers.METRICS
    else:
        setup_raw, setup_ref = setup_seconds(name, seed)
        info["setup_s_runs"] = setup_ref
        info["setup_s_not_rescaled_runs"] = setup_raw
        info["speed_probes"] = len(probe_s)
        info["probe_s_quartiles"] = statistics.quantiles(probe_s, n=4)
        metrics = {
            "ref_wall_s": statistics.median(ref_walls),
            "peak_rss_mb": peak,
            "setup_s": statistics.median(setup_ref),
        }
        units = END_TO_END
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        rows = {}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                status = 1
            if len(lines) < 2:
                print(f"{name}: no result (exit {proc.returncode})")
                break
            rows[trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
        if len(rows) < 2:
            continue
        info, plain = rows[0]
        _, traced = rows[1]
        print(f"== {name}  seed {seed}  samples {info['samples']}  "
              f"attempted {plain['attempted']}  failed {plain['failed']}")
        for key, m in plain["metrics"].items():
            print(f"  {key:34s} {m['value']:14.4f} {m['unit']}")
        print(f"  {'artifact_mb':34s} {info['artifact_mb']:14.4f} MB")
        print(f"  {'failed_frac':34s} {info['failed_frac']:14.4f} fraction")
        for err in info["errors"]:
            print(f"  ! {err}")
        tm = traced["metrics"]
        raw_wall = statistics.median(info["wall_s_runs"])
        overhead = tm["trace.wall_s"]["value"] - raw_wall
        print(f"  {'wall_s':34s} {raw_wall:14.4f} s (untraced, not rescaled)")
        print(f"  {'trace.overhead_s':34s} {overhead:14.4f} s (traced minus untraced wall)")
        for key, m in tm.items():
            print(f"  {key:34s} {m['value']:14.4f} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="chromarect benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        p.error("--workload is required")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a multi-million-object drawing
    # takes seconds and measures nothing.
    os._exit(code)
