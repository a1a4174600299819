#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: parent against change.

    python3 tools/abpair.py --workload rounds --seed0 2401
        [--metric cpu_ms_per_op] [--base HEAD]

Run it from the repository root. It checks out --base (default HEAD,
the parent of an uncommitted change; pass HEAD~1 once the change is
committed) as a detached git worktree under .bench_build/, and runs

    bash perfbench/run.sh --workload W --seed S --seconds T --trace 0

in that worktree (A, the parent) and in the working tree (B, the
change), T being BENCHMARK.json's run_seconds, over the 10 pairs the
claim rule counts. Pair k uses seed seed0+k for both sides; even
pairs run A first and odd pairs B first (ABBA order), so a drift of
the machine hits both sides alike. The worktree is removed on every
exit path, interrupts included.

It prints every pair's value of the claimed metric, the wins of B,
each side's median and quartiles, the medians of the other end-to-end
metrics of BENCHMARK.json, every run's fail_ratio, and last one line
for CHANGES.md with the verdict of the claim rule: B wins at least
9 pairs in 10, and B's median is below A's by more than A's
interquartile range. Every end-to-end metric of BENCHMARK.json is
lower-is-better, and the rule here assumes it. A run that fails
(non-zero exit, no result line, or a fail_ratio above 0) is named,
and no claim passes with one.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

PAIRS = 10  # pairs in one comparison
WINS = 9  # wins of the change the claim rule needs out of PAIRS


def quartiles(xs):
    """(Q1, median, Q3), linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs):
    """Apply the claim rule to pairs of runs of a lower-is-better metric.

    pairs is a list of (a, b) runs, a the parent's and b the change's;
    a run is a dict with "seed", "value" (None when the run gave no
    result) and "fail_ratio". Returns a dict with the wins, both sides'
    quartiles, the median gap, the parent's IQR, the failed runs and
    the verdict.
    """
    failed = []
    for k, (a, b) in enumerate(pairs):
        for side, run in (("A", a), ("B", b)):
            if run["value"] is None or run["fail_ratio"] > 0:
                failed.append("pair %d %s seed %d" % (k + 1, side, run["seed"]))
    done = [(a["value"], b["value"]) for a, b in pairs
            if a["value"] is not None and b["value"] is not None]
    wins = sum(1 for x, y in done if y < x)
    res = {"pairs": len(pairs), "wins": wins, "failed": failed}
    if not done:
        res.update(a=None, b=None, gap=0.0, iqr=0.0, passed=False)
        return res
    a = quartiles([x for x, _ in done])
    b = quartiles([y for _, y in done])
    gap = a[1] - b[1]
    iqr = a[2] - a[0]
    res.update(a=a, b=b, gap=gap, iqr=iqr)
    res["passed"] = not failed and wins >= WINS and gap > iqr
    return res


def fmt(x):
    return "%.4g" % x


def verdict_line(workload, metric, unit, seeds, seconds, base, pairs, s):
    """The one-line record of a paired comparison for CHANGES.md."""
    vals = ", ".join(
        "%s→%s" % (fmt(a["value"]) if a["value"] is not None else "fail",
                   fmt(b["value"]) if b["value"] is not None else "fail")
        for a, b in pairs)
    head = "abpair %s %s, %d ABBA pairs of %d-s runs, seeds %d–%d, base %s: %s" % (
        workload, metric, len(pairs), seconds, seeds[0], seeds[-1], base, vals)
    if s["a"] is None:
        return head + "; no pair completed; verdict: FAIL"
    a, b = s["a"], s["b"]
    body = "; %d/%d wins; medians %s → %s %s (×%.3f); parent IQR %s–%s = %s, change IQR %s–%s" % (
        s["wins"], len(pairs), fmt(a[1]), fmt(b[1]), unit, b[1] / a[1] if a[1] else float("nan"),
        fmt(a[0]), fmt(a[2]), fmt(s["iqr"]), fmt(b[0]), fmt(b[2]))
    if s["failed"]:
        body += "; failed runs: " + ", ".join(s["failed"])
    else:
        body += "; fail_ratio 0 in all %d runs" % (2 * len(pairs))
    why = []
    if s["wins"] < WINS:
        why.append("%d wins < %d" % (s["wins"], WINS))
    if s["gap"] <= s["iqr"]:
        why.append("median gap %s not above the parent IQR %s" % (fmt(s["gap"]), fmt(s["iqr"])))
    if s["failed"]:
        why.append("%d failed runs" % len(s["failed"]))
    if s["passed"]:
        body += "; verdict: PASS (gap %s > IQR %s)" % (fmt(s["gap"]), fmt(s["iqr"]))
    else:
        body += "; verdict: FAIL (%s)" % "; ".join(why)
    return head + body


def run_bench(checkout, workload, seed, seconds):
    """One benchmark run; returns (metrics, fail_ratio) with metrics
    None when the run printed no result line."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("run in %s, seed %d, exit %d, printed no result line:\n%s\n" % (
            checkout, seed, p.returncode, p.stderr[-2000:]))
        return None, 1.0
    attempted, failed = res.get("attempted", 0), res.get("failed", 0)
    ratio = failed / attempted if attempted else 1.0
    if p.returncode != 0 and ratio == 0:
        ratio = 1.0
    return {k: v["value"] for k, v in res.get("metrics", {}).items()}, ratio


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed0", type=int, required=True, help="seed of the first pair (use fresh seeds)")
    ap.add_argument("--metric", default="cpu_ms_per_op", help="the claimed end-to-end metric")
    ap.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    args = ap.parse_args()

    root = git(".", "rev-parse", "--show-toplevel")
    base = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    if args.metric not in e2e:
        ap.error("metric %s is not an end-to-end metric of BENCHMARK.json (%s)" % (
            args.metric, ", ".join(sorted(e2e))))
    if e2e[args.metric]["better"] != "lower":
        ap.error("metric %s is not lower-is-better; the claim rule here assumes it is" % args.metric)
    wt = os.path.join(root, ".bench_build", "abpair-" + base[:12])

    def cleanup():
        if os.path.isdir(wt):
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", wt],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            shutil.rmtree(wt, ignore_errors=True)
        subprocess.run(["git", "-C", root, "worktree", "prune"])

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGHUP, on_signal)
    cleanup()
    try:
        os.makedirs(os.path.dirname(wt), exist_ok=True)
        git(root, "worktree", "add", "--detach", wt, base)
        seeds = [args.seed0 + k for k in range(PAIRS)]
        pairs, runs = [], []
        for k, seed in enumerate(seeds):
            order = [("A", wt), ("B", root)] if k % 2 == 0 else [("B", root), ("A", wt)]
            got = {}
            for side, checkout in order:
                metrics, ratio = run_bench(checkout, args.workload, seed, seconds)
                got[side] = {"seed": seed, "metrics": metrics or {}, "fail_ratio": ratio,
                             "value": (metrics or {}).get(args.metric)}
                runs.append((side, seed, ratio))
                print("pair %d seed %d %s: %s %s, fail_ratio %g" % (
                    k + 1, seed, side, args.metric, got[side]["value"], ratio), flush=True)
            pairs.append((got["A"], got["B"]))
    finally:
        cleanup()

    print()
    for name, m in e2e.items():
        side = [[r["metrics"][name] for r in col if name in r["metrics"]] for col in zip(*pairs)]
        if not side[0] or not side[1]:
            continue
        qa, qb = quartiles(side[0]), quartiles(side[1])
        print("%-14s A median %s (IQR %s–%s)  B median %s (IQR %s–%s) %s, ×%.3f" % (
            name, fmt(qa[1]), fmt(qa[0]), fmt(qa[2]), fmt(qb[1]), fmt(qb[0]), fmt(qb[2]),
            m["unit"], qb[1] / qa[1] if qa[1] else float("nan")))
    print("fail_ratio per run: " + ", ".join("%s%d=%g" % (s, seed, r) for s, seed, r in runs))
    s = summarize(pairs)
    print(verdict_line(args.workload, args.metric, e2e[args.metric]["unit"], seeds,
                       seconds, base[:7], pairs, s))
    return 0 if s["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
