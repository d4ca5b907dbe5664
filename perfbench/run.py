#!/usr/bin/env python3
"""The QLEC repository benchmark.

Builds the simulator libraries from ../src together with the perfbench
binary (perfbench/CMakeLists.txt, build tree .bench_build/perfbench), runs
one workload and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as measured. A CPU probe timed between
repetitions is reported beside them, never applied: when its medians over
the first and second half of the run differ by more than DRIFT_WARN the
run is flagged as taken while the host's speed changed. Modes:

    run.py --workload W --seed N --seconds S --trace 0|1   one run
    run.py --all [--seeds K] [--seconds S] [--out FILE]     every workload,
        K seeds each, untraced and traced; prints every metric by name and
        unit and writes a result file (default .bench_build/results.json)
    run.py --compare BASE.json NEW.json                     compare two
        result files written by --all

Correctness: every repetition of a node workload (traced or not) must give
the same trace digest, and at the pinned seed the digest in
perfbench/digests.json; on serve_sweep every manifest cell must match its
first answer and a direct run_replications. Any failed check counts as a
failed operation and makes "correct" false.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
DRIFT_WARN = 1.25

# Why each workload exists, with the figures measured when the benchmark
# was defined (4-core Xeon VM with AVX-512, 15 GiB RAM, gcc 12.2, Release).
WORKLOADS = {
    "qlec_traffic_100k": {
        "why": "The per-packet relay decision (QLEC Alg. 4) dominates: "
               "route + ACK feedback are ~80% of the traced run, election "
               "~3%. Also the plain single-threaded baseline.",
        "baseline": "5 rounds: 3.67M route decisions scanning 63.0M "
                    "candidates (17.2 per decision); 85% of decisions go "
                    "direct to the BS; ~2.2 s per run; peak RSS ~66 MB "
                    "(the y-memo fits in L3).",
    },
    "qlec_rotation_1m": {
        "why": "Cluster rotation (improved-DEEC election, HELLO, "
               "assignment, prepare_tx prefill) and the simulator's "
               "per-round refresh dominate; the only workload where the "
               "sharded ExecContext paths run (ROADMAP 2 and 3a).",
        "baseline": "8 rounds at 4 shards: election 3.0 s, prefill 0.77 s, "
                    "between-rounds 1.2 s against route 1.17 s; ~7 s per "
                    "run; peak RSS 1.1 GB, far past L3.",
    },
    "serve_sweep": {
        "why": "Covers config, serve, the ResultStore, the 12 non-QLEC "
               "protocols, sim/mac, sim/env and sim/fault; mixes store "
               "reads (resubmits) and writes (fresh grids), and the "
               "never-shrinking runs_ map and memory tier (ROADMAP 5c).",
        "baseline": "2 clients, 2 job workers, passes of 2000 requests "
                    "in an assumed mix (80% warm / 12% cold / 8% status; "
                    "no recorded request trace exists): ~550 requests/s, "
                    "warm p50 0.65 ms, cold p50 7.5 ms, store hit ratio "
                    "0.87; an fcm cell costs ~47 ms, most others 2-4 ms.",
    },
}

# Per-layer metrics that are exact, deterministic counts for a given seed:
# compare mode flags any difference in them.
EXACT = {
    "core.election.calls", "core.election.eligible", "core.election.elected",
    "core.election.pruned", "core.election.drafted",
    "core.election.heads_mean", "core.route.calls", "core.route.q_evals",
    "core.route.q_evals_per_call", "core.route.to_bs_share",
    "core.feedback.calls", "core.feedback.ack_ratio", "core.uplink.calls",
    "core.uplink.ack_ratio", "core.prepare_tx.rows_used_ratio",
    "sim.generated", "sim.delivered", "sim.lost_link", "sim.lost_queue",
    "sim.lost_dead",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench tree; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run it from the "
                 "root of a QLEC checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def host_fingerprint(binary_fp):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    fp = {"cpu": cpu, "nproc": os.cpu_count()}
    fp.update(binary_fp)
    fp["git_sha"] = sha
    return fp


def run_binary(workload, seed, seconds, trace):
    """One perfbench run: its raw JSON, with the pinned-digest gate."""
    r = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       capture_output=True, text=True, cwd=ROOT,
                       timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with {r.returncode}")
    raw = json.loads(lines[-1])
    if raw["host_drift"] > DRIFT_WARN:
        print(f"perfbench: host speed drifted during this run (probe "
              f"halves differ {raw['host_drift']:.2f}x); its times are "
              "suspect, rerun it", file=sys.stderr)
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f)
    if seed == pinned["seed"] and workload in pinned:
        if raw["digest"] != pinned[workload]:
            raw["errors"].append(f"digest {raw['digest']} != pinned "
                                 f"{pinned[workload]} at seed {seed}")
            raw["failed"] = raw["attempted"]
    return raw


def result_line(spec, raw, trace):
    """The benchmark's result object. Per-layer metrics of layers a
    workload does not exercise read 0; end-to-end metrics must all be
    measured, positive and finite."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, correct = {}, raw["failed"] == 0
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not trace:
                raw["errors"].append(f"metric {m['name']} not measured")
                correct = False
            value = 0.0
        elif not trace and not (math.isfinite(value) and value > 0):
            raw["errors"].append(f"metric {m['name']} = {value}")
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args, spec):
    build()
    results = {"fingerprint": None, "seconds": args.seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        entry = {"untraced": [], "traced": [], "attempted": 0, "failed": 0,
                 "errors": []}
        for i in range(args.seeds):
            for trace, key in ((0, "untraced"), (1, "traced")):
                raw = run_binary(name, args.seed + i, args.seconds, trace)
                line = result_line(spec, raw, trace)
                results["fingerprint"] = results["fingerprint"] or \
                    host_fingerprint(raw["fingerprint"])
                entry[key].append({"seed": args.seed + i,
                                   "digest": raw["digest"],
                                   "probe_ms": raw["probe_ms"],
                                   "host_drift": raw["host_drift"],
                                   "correct": line["correct"],
                                   "metrics": {k: v["value"] for k, v in
                                               line["metrics"].items()}})
                entry["attempted"] += line["attempted"]
                entry["failed"] += line["failed"]
                entry["errors"] += raw["errors"]
                print(f"  {name} seed {args.seed + i} trace {trace}: "
                      f"{line['attempted']} ops, {line['failed']} failed",
                      file=sys.stderr)
        results["workloads"][name] = entry
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"host: {json.dumps(results['fingerprint'])}")
    for name, entry in results["workloads"].items():
        print(f"\n== {name}: {entry['attempted']} operations, "
              f"{entry['failed']} failed")
        for err in entry["errors"][:10]:
            print(f"   ! {err}")
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles([r["metrics"][m["name"]]
                                    for r in entry["untraced"]])
            print(f"  {m['name']:<22} {q2:14.6g} {m['unit']:<6} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}]")
        layer = layer_medians(entry)
        for m in spec["per_layer"]:
            if layer.get(m["name"], 0) != 0:
                print(f"  {m['name']:<34} {layer[m['name']]:14.6g} "
                      f"{units[m['name']]}")
        print_shares(layer)
    out = args.out or os.path.join(ROOT, ".bench_build", "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nwrote {out}")
    return all(e["failed"] == 0 and all(r["correct"] for r in
                                        e["untraced"] + e["traced"])
               for e in results["workloads"].values())


def layer_medians(entry):
    names = entry["traced"][0]["metrics"].keys() if entry["traced"] else []
    return {n: statistics.median(r["metrics"][n] for r in entry["traced"])
            for n in names}


def print_shares(layer):
    """Where a node workload's traced run time went, by layer."""
    run = layer.get("sim.run_s", 0)
    if run <= 0:
        return
    parts = [("election", "core.election.busy_s"),
             ("prepare_tx", "core.prepare_tx.busy_s"),
             ("route", "core.route.busy_s"),
             ("feedback", "core.feedback.busy_s"),
             ("uplink", "core.uplink.busy_s"),
             ("sim refresh", "sim.refresh_s"),
             ("sim transmission self", "sim.transmission_self_s"),
             ("sim uplink self", "sim.uplink_self_s"),
             ("sim between rounds", "sim.between_rounds_s")]
    print("  share of the traced run:")
    for label, key in parts:
        print(f"    {label:<24} {100 * layer.get(key, 0) / run:6.1f}%")


def compare(base_path, new_path, spec):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    flags = 0
    fb, fn = base["fingerprint"] or {}, new["fingerprint"] or {}
    for key in sorted(set(fb) | set(fn)):
        if key != "git_sha" and fb.get(key) != fn.get(key):
            print(f"HOST DIFFERS: {key}: {fb.get(key)!r} vs {fn.get(key)!r} "
                  "(times are not comparable)")
            flags += 1
    print(f"base {fb.get('git_sha')}  vs  new {fn.get('git_sha')}")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        b, n = base["workloads"][name], new["workloads"][name]
        info = WORKLOADS.get(name, {})
        print(f"\n== {name}\n   why: {info.get('why', '')}\n"
              f"   baseline: {info.get('baseline', '')}")
        print(f"   operations: base {b['attempted']} ({b['failed']} failed), "
              f"new {n['attempted']} ({n['failed']} failed)")
        drifted = sum(r["host_drift"] > DRIFT_WARN
                      for r in b["untraced"] + n["untraced"])
        if drifted:
            print(f"   HOST DRIFTED during {drifted} run(s): rerun them")
            flags += 1
        for m in spec["end_to_end"]:
            bq = quartiles([r["metrics"][m["name"]] for r in b["untraced"]])
            nq = quartiles([r["metrics"][m["name"]] for r in n["untraced"]])
            delta = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            worse = -delta if m["better"] == "higher" else delta
            mark = "  WORSE BEYOND BOUND" if worse > m["bound"] else ""
            print(f"  {m['name']:<22} base {bq[1]:12.6g} [{bq[0]:.4g}, "
                  f"{bq[2]:.4g}]  new {nq[1]:12.6g} [{nq[0]:.4g}, "
                  f"{nq[2]:.4g}] {m['unit']:<5} {100 * delta:+7.2f}%{mark}")
        bl, nl = layer_medians(b), layer_medians(n)
        for m in spec["per_layer"]:
            key = m["name"]
            bv, nv = bl.get(key, 0.0), nl.get(key, 0.0)
            if bv == 0 and nv == 0:
                continue
            line = f"  {key:<34} {bv:14.6g} -> {nv:14.6g} {m['unit']:<8}"
            if bv:
                line += f" {100 * (nv - bv) / bv:+7.2f}%"
            if key in EXACT:
                bs = {r["seed"]: r["metrics"][key] for r in b["traced"]}
                ns = {r["seed"]: r["metrics"][key] for r in n["traced"]}
                if any(bs[s] != ns[s] for s in set(bs) & set(ns)):
                    line += "  EXACT COUNTER CHANGED"
                    flags += 1
            print(line)
    print(f"\n{flags} flag(s)")
    return flags == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1], spec) else 1
    if args.all:
        return 0 if run_all(args, spec) else 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {', '.join(names)}")
    build()
    raw = run_binary(args.workload, args.seed, args.seconds, args.trace)
    line = result_line(spec, raw, args.trace)
    print(f"host: {json.dumps(host_fingerprint(raw['fingerprint']))}")
    print(f"host probe {raw['probe_ms']:.4f} ms, drift "
          f"{raw['host_drift']:.3f}x")
    for err in raw["errors"]:
        print(f"check failed: {err}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
