"""Collect benchmark runs into a results file, and compare two of them.

Usage (from the root of a checkout)::

    # ten untraced runs and two traced runs per workload
    python3 perfbench/ledger.py collect --out results.json --seeds 1-10 \\
        --trace-seeds 1-2
    # medians and quartiles of a results file
    python3 perfbench/ledger.py summary results.json
    # per-workload, per-layer self-time deltas; names the layer that moved
    python3 perfbench/ledger.py attribute OLD.json NEW.json
    # re-fly every pool mission and rewrite the reference digests
    python3 perfbench/ledger.py references

Each run is a separate ``perfbench/run.py`` process, exactly as the
benchmark is meant to be invoked, flown one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = "perfbench-ledger/1"
WORKLOADS = ["delivery", "search_rescue", "city_cross2", "campaign_sweep"]


def parse_seeds(token: str) -> List[int]:
    """``"1-10"`` or ``"1,4,7"`` (or a mix, or empty) to a list of seeds."""
    seeds: List[int] = []
    for part in filter(None, token.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def stats(values: List[float]) -> Dict[str, Any]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them,
    plus the quartile distance as a share of the median."""
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args) -> int:
    out: Dict[str, Any] = {"schema": SCHEMA, "seconds": args.seconds,
                           "workloads": {}}
    for workload in args.workloads:
        runs = []
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            for seed in seeds:
                line = run_one(workload, seed, args.seconds, trace)
                runs.append({"seed": seed, "trace": trace, **line})
                print(f"{workload} seed={seed} trace={trace} "
                      f"correct={line['correct']}", file=sys.stderr)
        entry: Dict[str, Any] = {"runs": runs}
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            values: Dict[str, List[float]] = {}
            units: Dict[str, str] = {}
            for run in runs:
                if run["trace"] != trace:
                    continue
                for name, metric in run["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            entry[key] = {name: {"unit": units[name], **stats(vals)}
                          for name, vals in values.items()}
        out["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    summary_lines(out)
    return 0 if all(r["correct"] for w in out["workloads"].values()
                    for r in w["runs"]) else 1


def summary_lines(results: Dict[str, Any]) -> None:
    for workload, entry in results["workloads"].items():
        print(f"== {workload}")
        for key in ("end_to_end", "per_layer"):
            for name, m in entry.get(key, {}).items():
                print(f"  {name:<36} {m['median']:>12.6g} {m['unit']:<8} "
                      f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                      f"spread {100 * m['spread']:.1f}%  "
                      f"n={len(m['values'])}")


def summary(args) -> int:
    summary_lines(json.loads(Path(args.results).read_text()))
    return 0


#: Per-layer metrics that are host seconds spent in one layer.
def _is_layer_time(name: str) -> bool:
    return name.endswith(".self_s") or name in ("fleet.gate_wait_s",
                                                "core.loop_self_s")


def attribute(args) -> int:
    old = json.loads(Path(args.old).read_text())["workloads"]
    new = json.loads(Path(args.new).read_text())["workloads"]
    for workload in [w for w in old if w in new]:
        o, n = old[workload], new[workload]
        print(f"== {workload}")
        for name in ("wall_s", "setup_s"):
            if name in o["end_to_end"] and name in n["end_to_end"]:
                a = o["end_to_end"][name]["median"]
                b = n["end_to_end"][name]["median"]
                print(f"  {name:<36} {a:>10.4g} -> {b:<10.4g} "
                      f"({100 * (b - a) / a:+.1f}%)")
        deltas = []
        for name, m in o.get("per_layer", {}).items():
            if _is_layer_time(name) and name in n.get("per_layer", {}):
                a, b = m["median"], n["per_layer"][name]["median"]
                deltas.append((b - a, name, a, b))
        deltas.sort(key=lambda d: -abs(d[0]))
        for delta, name, a, b in deltas:
            print(f"  {name:<36} {a:>10.4g} -> {b:<10.4g} ({delta:+.4g} s)")
        if deltas:
            delta, name, _, _ = deltas[0]
            verb = "faster" if delta < 0 else "slower"
            print(f"  moved: {name} ({abs(delta):.4g} s {verb})")
    return 0


def references(args) -> int:
    """Fly every pool and held-out mission once; rewrite their digests.

    Only for an intended change of simulated outcomes: review the diff
    of ``references.json`` like the goldens' diff.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import missions

    refs = missions.load_references()
    digests: Dict[str, Any] = {}
    workdir = missions.make_workdir(ROOT)
    try:
        for name, workload in missions.WORKLOADS_BY_NAME.items():
            pool = refs["pools"][name]
            seeds = pool["seeds"] + pool["held_out"]
            # A campaign flies all its seeds at once; the rest one by one.
            groups = ([seeds] if isinstance(workload, missions.CampaignSweep)
                      else [[s] for s in seeds])
            for group in groups:
                state = workload.setup(group, workdir)
                flight = workload.fly(state, group, workdir)
                if flight.errors:
                    raise RuntimeError(f"{name} {group}: a mission raised")
                for digest in flight.digests:
                    digests[missions.digest_key(name, digest)] = digest
                print(f"{name} {group}: {len(flight.digests)} digests",
                      file=sys.stderr)
    finally:
        missions.remove_workdir(workdir)
    refs["digests"] = dict(sorted(digests.items()))
    missions.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark into a file")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", type=lambda s: s.split(","),
                   default=WORKLOADS)
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--trace-seeds", type=parse_seeds,
                   default=parse_seeds("1-2"))
    p.add_argument("--seconds", type=int, default=10)
    p.set_defaults(func=collect)
    p = sub.add_parser("summary", help="medians and quartiles of a file")
    p.add_argument("results")
    p.set_defaults(func=summary)
    p = sub.add_parser("attribute", help="per-layer deltas between files")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=attribute)
    p = sub.add_parser("references", help="rewrite the reference digests")
    p.set_defaults(func=references)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
