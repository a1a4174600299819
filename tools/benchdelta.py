#!/usr/bin/env python3
"""Benchmark baseline recorder / regression gate for CI.

Modes:

  record  <bench-output> <out.json>
      Parse `go test -bench` output (possibly -count repeated) and
      write {"machine": {...}, "benchmarks": {name: {"ns_op": min,
      "B_op":, "allocs_op":}}}. The machine record holds goos, goarch
      and cpu from the `go test` header, GOMAXPROCS from the `-N`
      suffix of the benchmark names (no suffix means 1; a run over
      several -cpu values records the sorted list), and the recording
      machine's core count (os.cpu_count()) and Go version (`go env
      GOVERSION`, "unknown" when that fails).

  check   <bench-output> <baseline.json> [--threshold 0.25]
      Compare the run against the committed baseline. Raw ns/op is
      hardware-dependent, so each watched benchmark's ratio is
      normalised by the median ratio across *all* shared benchmarks
      (the calibration set cancels uniform machine-speed differences).
      For the watched benchmarks allocs/op is also compared raw: an
      alloc count growing by more than the threshold fails (a
      zero-alloc baseline therefore tolerates no allocation at all —
      this is how the sweep engine's 0 allocs/op promise is pinned,
      for the serial hit path and the lock-free parallel hit path
      alike).
      Watched benchmarks must not scale with the runner's core count:
      most are serial (BenchmarkSweepMeasure and SweepMeasureAll pin
      par.Set(1) themselves), and BenchmarkCanonicalBallParallel pins
      GOMAXPROCS so its goroutine count is fixed — on runners with
      fewer cores its goroutines timeshare, which can only make the
      measured ns/op worse than the baseline machine's, never
      spuriously better, so the gate stays sound (merely
      conservative). Exit 1 on any regression.
      It prints the baseline's and the run's machine records first,
      cores and Go version included ("unrecorded" for a baseline
      without one); they inform, the ratios alone decide.

Watched benchmarks (the CSR/interner/sweep/round-engine hot paths the
repo promises not to regress): ViewEncode, CanonicalBall,
CanonicalBallParallel, SweepMeasure, SweepMeasureAll, E14Views,
RunRoundsTyped (the message-plane engine: one steady-state round on
the 4096-node torus at parallelism 8, states and payloads in uint64
columns — its 0 allocs/op baseline pins the zero-allocation round
promise; par.Set(8) fixes the worker count, so on smaller runners the
workers timeshare and the measured ns/op can only be conservative),
RunRoundsTypedFaulty (the same round under the lossy:p=0.05 fault
schedule — pins both the faulty path's overhead and its own 0
allocs/op steady state), RunRoundsCheckpointIdle (the same round with
a checkpointer armed but idle, at 0 allocs/op), SnapshotRestore (the
snapshot+resume round trip), EngineMillionCycleTyped (the million-node
round: pins the word lane's per-round cost at memory-bound scale; its
allocs_op baseline is null on purpose — the benchmark amortises one
run's setup over b.N rounds, so the per-op alloc count varies with the
runner's speed and only the normalised ns/op is gated),
ServeCachedRequest (the
localapproxd end-to-end handler path on a warm cache entry: routing,
query parse, canonical key, FNV hash, lock-free probe, response write
— its 0 allocs/op baseline pins the service's repeat-request promise),
and ShardedRound / ShardedExchange (the sharded engine's steady-state
round at 0 allocs/op: the torus at P=4 prices the two-phase barrier on
local-heavy traffic, the long-shift circulant at P=8 prices the
counting-sorted cross-shard exchange drain).
"""
import json
import os
import re
import statistics
import subprocess
import sys

WATCHED = [
    "BenchmarkViewEncode",
    "BenchmarkCanonicalBall",
    "BenchmarkCanonicalBallParallel",
    "BenchmarkSweepMeasure",
    "BenchmarkSweepMeasureAll",
    "BenchmarkE14Views",
    "BenchmarkRunRoundsTyped",
    "BenchmarkRunRoundsTypedFaulty",
    "BenchmarkRunRoundsCheckpointIdle",
    "BenchmarkSnapshotRestore",
    "BenchmarkEngineMillionCycleTyped",
    "BenchmarkServeCachedRequest",
    "BenchmarkShardedRound",
    "BenchmarkShardedExchange",
]

LINE = re.compile(
    r"(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op"
    r"(?:\s+(\d+) B/op\s+(\d+) allocs/op)?"
)
HEADER = re.compile(r"(goos|goarch|cpu): (.+)")


def parse(path):
    """Parse bench output into (machine, rows); repeated -count lines
    keep the minimum ns/op."""
    rows = {}
    machine = {}
    procs = set()
    with open(path) as f:
        for line in f:
            h = HEADER.match(line)
            if h:
                machine.setdefault(h.group(1), h.group(2).strip())
                continue
            m = LINE.match(line)
            if not m:
                continue
            name = m.group(1)
            procs.add(int(m.group(2) or 1))
            ns = float(m.group(4))
            row = rows.setdefault(
                name,
                {
                    "ns_op": ns,
                    "B_op": int(m.group(5)) if m.group(5) else None,
                    "allocs_op": int(m.group(6)) if m.group(6) else None,
                },
            )
            row["ns_op"] = min(row["ns_op"], ns)
    if procs:
        procs = sorted(procs)
        machine["gomaxprocs"] = procs[0] if len(procs) == 1 else procs
    return machine, rows


def go_version():
    """The local toolchain's `go env GOVERSION`, or "unknown"."""
    try:
        out = subprocess.run(
            ["go", "env", "GOVERSION"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out or "unknown"


def local_machine(machine):
    """machine plus this machine's core count and Go version: the parts
    of the record the `go test` output does not carry."""
    return {**machine, "cores": os.cpu_count(), "go_version": go_version()}


def describe(machine):
    """One line for a machine record, or "unrecorded"."""
    if not machine:
        return "unrecorded"
    return " ".join(
        f"{k}={machine[k]}"
        for k in ("goos", "goarch", "cpu", "cores", "gomaxprocs", "go_version")
        if k in machine
    )


def record(bench_path, out_path):
    machine, rows = parse(bench_path)
    machine = local_machine(machine)
    if not rows:
        sys.exit(f"benchdelta: no benchmark lines in {bench_path}")
    json.dump({"machine": machine, "benchmarks": rows}, open(out_path, "w"), indent=2)
    print(f"benchdelta: recorded {len(rows)} benchmarks to {out_path} ({describe(machine)})")


def check(bench_path, baseline_path, threshold):
    cur_machine, cur = parse(bench_path)
    cur_machine = local_machine(cur_machine)
    baseline = json.load(open(baseline_path))
    base = baseline["benchmarks"]
    print(f"benchdelta: baseline machine: {describe(baseline.get('machine'))}")
    print(f"benchdelta: run machine: {describe(cur_machine)}")
    shared = sorted(set(cur) & set(base))
    if not shared:
        sys.exit("benchdelta: no shared benchmarks between run and baseline")
    ratios = {n: cur[n]["ns_op"] / base[n]["ns_op"] for n in shared}
    machine = statistics.median(ratios.values())
    print(f"benchdelta: {len(shared)} shared benchmarks, machine factor {machine:.3f}")
    failed = []
    for name in WATCHED:
        if name not in ratios:
            print(f"benchdelta: WARNING watched {name} missing from run or baseline")
            continue
        norm = ratios[name] / machine
        status = "ok"
        if norm > 1 + threshold:
            status = "REGRESSION"
            failed.append(name)
        print(
            f"  {name}: {base[name]['ns_op']:.0f} -> {cur[name]['ns_op']:.0f} ns/op"
            f" (normalised x{norm:.3f}) {status}"
        )
        base_a = base[name].get("allocs_op")
        cur_a = cur[name].get("allocs_op")
        if base_a is None or cur_a is None:
            continue
        # allocs/op is deterministic (watched benchmarks are serial):
        # no machine normalisation. A baseline of 0 tolerates no
        # allocation at all.
        astatus = "ok"
        if cur_a > base_a * (1 + threshold) and cur_a > base_a:
            astatus = "ALLOC REGRESSION"
            failed.append(name + " (allocs)")
        print(f"  {name}: {base_a} -> {cur_a} allocs/op {astatus}")
    if failed:
        sys.exit(
            f"benchdelta: regression above {threshold:.0%} in: "
            + ", ".join(failed)
        )
    print("benchdelta: within budget")


def main():
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "record":
        record(args[1], args[2])
    elif len(args) >= 3 and args[0] == "check":
        threshold = 0.25
        if "--threshold" in args:
            threshold = float(args[args.index("--threshold") + 1])
        check(args[1], args[2], threshold)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
