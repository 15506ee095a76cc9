"""Alternating parent/change runs of perfbench, summarised as a BENCH_*.json.

    python3 tools/bench_pairs.py REV [--seed0 1000] [--out BENCH_x.json]
        [--claim WORKLOAD:METRIC] [--what TEXT]

The parent side is ``git archive REV`` unpacked into a temporary directory;
the change side is a snapshot of the working tree (tracked and untracked,
not ignored, files) taken at start, so edits made while it runs are not
measured. Every workload of ``BENCHMARK.json`` runs 10 pairs; each pair runs
``perfbench/run.py --workload W --seed S --seconds N --trace 0``, N being
``BENCHMARK.json``'s ``run_seconds``, once per side, one run at a time, with
the same seed; the side that runs first alternates, parent first on the first
pair. Per metric the JSON holds each side's median and quartiles (inclusive
linear interpolation), every run, and ``change_wins``: the pairs where the
change is better in the direction ``BENCHMARK.json`` gives. Each (workload,
metric) is printed with its verdict against the ``BENCHMARK.json`` bound.
``--claim`` adds a ``claim_result``: the change must win at least 9/10 of the
pairs and its median must beat the parent's by more than the parent's
quartile distance.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pairs per workload: the fewest a claim of 9 wins in 10 can rest on.
PAIRS = 10


def git(*args, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          **kw)


def export_rev(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, unpacked into ``dest``."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                       stdout=f)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def snapshot_worktree(dest: Path) -> None:
    """Copy of the working tree's tracked and untracked, not ignored, files."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.stdout.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = json.loads((tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json")
                     .read_text(encoding="utf-8"))["environment"]
    result["environment"] = env
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: dict, seeds: list, first: list, better: dict) -> dict:
    out = {"pairs": len(seeds), "seeds": seeds, "first_side": first,
           "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
           "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
           "metrics": {}}
    for name, direction in better.items():
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        out["metrics"][name] = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            "parent": quartiles(vals["parent"]), "change": quartiles(vals["change"]),
            "change_wins": wins, "runs": vals}
    return out


def verdict(m: dict, direction: str, bound: float) -> str:
    """Worse by more than the bound, within it, or unresolved (spread > bound)."""
    p, c = m["parent"]["median"], m["change"]["median"]
    worse = (c - p) / p if direction == "lower" else (p - c) / p
    spread = (m["parent"]["q3"] - m["parent"]["q1"]) / p
    if worse > bound:
        return f"REGRESSION {100 * worse:+.1f}% > {100 * bound:.0f}%"
    if spread > bound:
        return f"unresolved (parent spread {100 * spread:.1f}%)"
    return f"ok, {100 * -worse:+.1f}% (+ is better)"


def claim_result(m: dict, direction: str) -> dict:
    p, c = m["parent"]["median"], m["change"]["median"]
    gap = p - c if direction == "lower" else c - p
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    pairs = m["parent"]["n"]
    return {"met": m["change_wins"] >= 0.9 * pairs and gap > iqr,
            "median_gap": gap, "parent_quartile_distance": iqr,
            "change_median_over_parent": c / p,
            "change_wins": m["change_wins"], "pairs": pairs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="parent revision, e.g. HEAD or a commit id")
    ap.add_argument("--seed0", type=int, default=1000,
                    help="seed of the first pair; pair i uses seed0 + i")
    ap.add_argument("--out", default=None, help="output JSON path")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    ap.add_argument("--what", default=None, help="one-line description")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    rev = git("rev-parse", "--short", args.rev).stdout.decode().strip()
    head = git("rev-parse", "--short", "HEAD").stdout.decode().strip()
    dirty = bool(git("status", "--porcelain").stdout.strip())
    today = datetime.date.today().isoformat()

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_rev(rev, trees["parent"])
        snapshot_worktree(trees["change"])
        report = {
            "what": args.what or (f"perfbench end-to-end metrics, parent {rev} vs "
                                  f"the working tree at {head}"
                                  + (" with local changes" if dirty else "")),
            "date": today,
            "command": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                        f"{seconds:g} --trace 0, each side in its own copy, one run "
                        f"at a time (tools/bench_pairs.py)"),
            "pairing": ("one parent run and one change run per seed; the side that "
                        "runs first alternates from seed to seed, parent first on "
                        "the first seed"),
            "statistics": ("median and quartiles (linear interpolation, inclusive) "
                           "over each side's per-run metric; change_wins counts "
                           "pairs where the change is better"),
            "claim": args.claim or "none",
            "host": None,
            "workloads": {},
        }
        for wl in workloads:
            runs, seeds, first = {"parent": [], "change": []}, [], []
            for i in range(PAIRS):
                seed = args.seed0 + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], wl, seed, seconds))
                seeds.append(seed)
                first.append(order[0])
                p, c = (runs[s][-1]["metrics"] for s in ("parent", "change"))
                print(f"{wl} seed {seed}: " + ", ".join(
                    f"{n} {p[n]['value']:.4g} -> {c[n]['value']:.4g}" for n in better),
                    flush=True)
            report["workloads"][wl] = summarise(runs, seeds, first, better)
            env = runs["change"][0]["environment"]
            blas = env.get("blas", {})
            report["host"] = {"cpus": env["nproc"], "machine": env["machine"],
                              "python": env["python"], "numpy": env["numpy"],
                              "blas": f"{blas.get('name')} {blas.get('version')}",
                              "blas_threads": int(env["threads"]["OPENBLAS_NUM_THREADS"])}

    for wl, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{wl:9s} {name:12s} parent {m['parent']['median']:10.4g}  change "
                  f"{m['change']['median']:10.4g}  wins {m['change_wins']}/"
                  f"{summary['pairs']}  {verdict(m, better[name], bounds[name])}")
        print(f"{wl:9s} failed ops parent {summary['failed']['parent']} of "
              f"{summary['attempted']['parent']}, change {summary['failed']['change']} "
              f"of {summary['attempted']['change']}")
    if args.claim:
        wl, name = args.claim.split(":")
        report["claim_result"] = claim_result(
            report["workloads"][wl]["metrics"][name], better[name])
        print(f"claim {args.claim}: {report['claim_result']}")
    out = Path(args.out or ROOT / f"BENCH_pairs_{today}.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
