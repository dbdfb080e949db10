"""Run the benchmark in alternating pairs, a git revision against the working tree,
and record each end-to-end metric's runs, spread and wins.

Usage::

    python tools/bench_pairs.py REV --workload W --pairs N --seconds S --out BENCH_<pr>.json

REV's ``src/`` and ``perfbench/`` are extracted with ``git archive`` into a
temporary directory.  Pair ``i`` runs ``perfbench/run.py --workload W --seed
FIRST_SEED+i --seconds S --trace 0`` once on REV's copy (the parent) and once
on the working tree (the change), the parent first in even pairs and the change
first in odd ones, one run at a time.  Per metric of ``BENCHMARK.json``'s
``end_to_end`` list the output records both sides' runs, medians and quartiles,
the pairs each side won (a tie counts for neither), the change's median move
against its bound, and whether the gain rule holds: the change won at least
nine tenths of the pairs and its median is better than the parent's by more
than the distance between the parent's quartiles.

The workload's entry is written into ``--out``, beside those of other workloads
already there for the same REV.  The exit code is 2 if REV cannot be read, if
its ``perfbench/`` differs from the working tree's (the two sides would not run
the same benchmark), if ``--out`` is not a readable JSON object (checked before
any git call) or holds another revision's pairs, or if a run
fails or does not print ``"correct": true`` (its command and stderr are
printed), else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The change must win at least this share of the pairs for a gain to be claimed.
WINS, OF_PAIRS = 9, 10


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True)


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of ``values``, and the values themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's pairs: ``parent[i]`` and ``change[i]`` are the values of pair ``i``.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` the fraction of the parent's
    median by which the change's median may be worse before it is a regression.
    """
    sign = 1.0 if better == "higher" else -1.0
    old, new = spread(parent), spread(change)
    gain = sign * (new["median"] - old["median"])
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    parent_iqr = old["q3"] - old["q1"]
    worse_frac = -gain / abs(old["median"]) if old["median"] else 0.0
    return {
        "better": better,
        "parent": old,
        "change": new,
        "change_wins": wins,
        "parent_wins": losses,
        "median_gain": gain,
        "parent_iqr": parent_iqr,
        "worse_frac": worse_frac,
        "within_bound": worse_frac <= bound,
        "gain_rule_holds": wins * OF_PAIRS >= WINS * len(parent) and gain > parent_iqr,
    }


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The summary (last) line of one benchmark run on the tree at ``root``, with the
    ``env`` of its environment line; a run that fails, whose last line is not a JSON
    object, or that is not correct prints its command and stderr and exits 2."""
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, capture_output=True, text=True, cwd=root)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else {}
    except ValueError:  # a last line that is not JSON
        result = {}
    correct = result.get("correct") if isinstance(result, dict) else None
    if correct is not True:
        print(f"{shlex.join(command)} exited {run.returncode}, correct {correct}:\n"
              f"{run.stderr.rstrip()}", file=sys.stderr)
        sys.exit(2)
    result["env"] = next((json.loads(line)["env"] for line in lines if line.startswith('{"env"')),
                         {})
    return result


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    try:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
    except (OSError, ValueError):  # a directory, undecodable text or not JSON
        record = None
    if not isinstance(record, dict):
        print(f"{args.out} is not a readable JSON object, so not a record of this tool",
              file=sys.stderr)
        return 2

    parent_commit = _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    archive = _git("archive", "--format=tar", args.rev, "src", "perfbench")
    if parent_commit.returncode or archive.returncode:
        print((parent_commit.stderr or archive.stderr).decode(errors="replace").strip(),
              file=sys.stderr)
        return 2
    parent_commit = parent_commit.stdout.decode().strip()
    untracked = _git("ls-files", "--others", "--exclude-standard", "perfbench").stdout
    if _git("diff", "--quiet", parent_commit, "--", "perfbench").returncode or untracked:
        print(f"perfbench/ differs between {args.rev} and the working tree", file=sys.stderr)
        return 2
    if record.get("parent_commit", parent_commit) != parent_commit:
        print(f"{args.out} holds pairs against {record['parent_commit']}", file=sys.stderr)
        return 2
    end_to_end = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]

    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        roots = {"parent": Path(tmp), "change": REPO}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(roots[side], args.workload, seed, args.seconds))
            values = {side: runs[side][-1]["metrics"]["rows_per_s_w1"]["value"] for side in order}
            print(f"pair {i + 1}/{args.pairs} seed {seed}, {order[0]} first: rows_per_s_w1 "
                  f"parent {values['parent']:.1f}, change {values['change']:.1f}", flush=True)

    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        summary = summarize(parent, change, metric["better"], metric["bound"])
        metrics[name] = {"unit": metric["unit"], "bound": metric["bound"], **summary}
        print(f"{name}: median {summary['parent']['median']:.4g} -> "
              f"{summary['change']['median']:.4g} {metric['unit']}, change won "
              f"{summary['change_wins']}/{args.pairs}, parent IQR {summary['parent_iqr']:.3g}, "
              f"within bound {summary['within_bound']}, gain rule {summary['gain_rule_holds']}")
    head = _git("rev-parse", "HEAD").stdout.decode().strip()
    dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench").stdout)
    record.update({
        "parent_commit": parent_commit,
        "change_commit": head + (" with uncommitted changes" if dirty else ""),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "environment": {k: v for k, v in runs["change"][-1]["env"].items()
                        if k not in ("workload", "seed", "git_sha")},
    })
    record.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "parent_first": seeds[::2],
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
