#!/usr/bin/env python3
"""Repository benchmark: one command per workload.

    python3 perfbench/run.py --workload qft400|revlib|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the measuring
executable (perfbench/bench.ml) and the autobraid CLI with dune, runs one
workload, prints a report with every metric by name and unit plus the
run's provenance, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 publishes the
end_to_end metrics of BENCHMARK.json, --trace 1 its per_layer metrics
(from a separate traced pass). The exit code is 1 if any output was wrong,
2 if the benchmark could not run. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("qft400", "revlib", "serve_mix")
WORKDIR = os.path.join("perfbench", "_run")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join("_build", "default", "bin", "autobraid_cli.exe")
BENCH_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def local_env():
    """Keep the build and the run inside the checkout: no shared dune
    cache, temporary files under perfbench/_run/tmp."""
    tmp = os.path.abspath(os.path.join(WORKDIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        die("not a source checkout (missing %s); run from the repo root"
            % ", ".join(missing))
    env = local_env()
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./" + BENCH_EXE[len("_build/default/"):],
             "./" + CLI_EXE[len("_build/default/"):]],
            env=env, capture_output=True, text=True)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_bench(args):
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI_EXE, "--workdir", WORKDIR]
    # its own session, so stopping it also takes down the serve daemon
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         env=local_env(), start_new_session=True)
    try:
        out, _ = p.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("bench.exe exceeded %d s" % BENCH_TIMEOUT_S)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    if p.returncode != 0 or not out.strip():
        die("bench.exe failed with exit code %d" % p.returncode)
    return json.loads(out.strip().splitlines()[-1])


# The probe kernel's median time (perfbench/bench.ml) on the reference
# host, a 2-vCPU 2.0 GHz Xeon VM. Probed times are scaled to that speed.
PROBE_REF_S = 0.0065
# A sample's local speed: the probes after it and after its 4 neighbours
# on each side, in execution order.
PROBE_WINDOW = 4


def per_job(events, scaled):
    """{metric: {job: [samples]}} from bench.exe's events; with [scaled],
    each probed sample is multiplied by PROBE_REF_S over the median of the
    probes around it."""
    out = {}
    for i, e in enumerate(events):
        if e["metric"] == "lead":
            continue
        secs = e["secs"]
        if scaled and e["probes"]:
            near = events[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
            secs *= PROBE_REF_S / stats.median([p for n in near for p in n["probes"]])
        out.setdefault(e["metric"], {}).setdefault(e["job"], []).append(secs)
    return out


def pass_time(jobs):
    """A pass's time: the sum over its jobs of each job's median."""
    return sum(stats.median(samples) for samples in jobs.values())


def end_to_end(raw):
    jobs = per_job(raw["events"], scaled=True)
    ratios = [g / b for g, b in zip(raw["greedy_cycles"], raw["braid_cycles"])]
    return {
        "setup_s": pass_time(jobs["setup_s"]),
        "compile_s": pass_time(jobs["compile_s"]),
        "baseline_s": pass_time(jobs["baseline_s"]),
        "speedup_vs_greedy": stats.geomean(ratios),
        "cycles": raw.get("cycles_total", sum(raw["braid_cycles"])),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }


def client(raw):
    """Client-side serve numbers; empty off serve_mix."""
    if "latencies_s" not in raw:
        return {}
    lat = raw["latencies_s"]
    out = {"client.samples": len(lat),
           "client.goodput_rps": raw["ok_responses"] / raw["window_s"]}
    for p in (50, 95):
        v = stats.percentile(lat, p)
        if v is None:
            die("only %d latency samples: p%d is not supported" % (len(lat), p))
        out["client.latency_p%d_ms" % p] = 1000 * v
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda *_: die("terminated"))

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    build()

    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()[0]
    raw = run_bench(args)
    load_after = os.getloadavg()[0]

    measured = client(raw)
    if args.trace:
        declared = spec["per_layer"]
        measured.update(raw.get("layers", {}))
    else:
        declared = spec["end_to_end"]
        measured.update(end_to_end(raw))

    failures = raw["failures"]
    attempted = raw["attempted"]
    failed = min(len(failures), attempted)
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: nproc %d  ocaml %s  commit %s  load1 %.2f -> %.2f%s"
          % (nproc, raw["ocaml_version"], commit(), load_before, load_after,
             "  LOADED: 1-minute load above nproc"
             if max(load_before, load_after) > nproc else ""))
    print("correctness: %d attempted, %d failed (failed_share %.4f), "
          "%d greedy schedules uncertified (the baseline records no trace)"
          % (attempted, failed, failed / attempted, raw["uncertified"]))
    for m in failures:
        print("  FAIL " + m)
    wall = per_job(raw["events"], scaled=False)
    probes = [p for e in raw["events"] for p in e["probes"]]
    print("samples per job: %d; set-up samples: %d; unscaled wall: compile %.4g s,"
          " baseline %.4g s; host speed %.3f of the reference (%d probes)"
          % (len(wall["compile_s"][0]), len(wall["setup_s"][0]),
             pass_time(wall["compile_s"]), pass_time(wall["baseline_s"]),
             PROBE_REF_S / stats.median(probes), len(probes)))
    for k in sorted(k for k in measured if k.startswith("client.")):
        print("  %-28s %.6g" % (k, measured[k]))

    metrics = {}
    for m in declared:
        # a layer the workload never enters did no work: 0
        value = measured.get(m["name"], 0.0) if args.trace else measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-36s %14.6g %s" % (m["name"], value, m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
