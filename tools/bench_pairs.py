"""Run alternating parent/change pairs of the benchmark and write them to BENCH_<label>.json.

    python3 tools/bench_pairs.py --label pr14_lowrank_fps roll200:2401-2410 grid-roll3:2501-2505

Each WORKLOAD:FIRST-LAST argument runs one pair per seed in that range. The
parent side is the tree of HEAD exported with ``git archive``, as CI exports
it; the change side is a copy of this working tree's ``src`` and ``bench``,
so run it before committing the change. Both run BENCHMARK.json's command
with ``--workload W --seed S --seconds N --trace 0``, N being its
``run_seconds``, from their own temporary directory, one after the other, never at once; the
side that runs first alternates from pair to pair. Each side's entry is the
result file that run wrote to its ``.bench_out/``, machine record included
(``git_commit`` is null: neither copy is a git checkout).

The output keeps the layout of the earlier ``BENCH_*.json`` files (``about``,
``command``, ``parent_commit`` and ``pairs``, each pair with ``workload``,
``seed``, ``first``, ``parent`` and ``change``), plus ``summary``: per
workload and gated metric, each side's median and quartiles over the pairs
and the number of pairs the change won, for BENCHMARK.json's ``end_to_end`` metrics,
and the same for the raw (not host-normalised) medians where the result has them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_spec(text):
    """'roll200:2401-2410' -> ('roll200', [2401, ..., 2410])."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    try:
        first, last = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError("expected WORKLOAD:FIRST-LAST, got %r" % text) from None
    if not workload or last < first:
        raise argparse.ArgumentTypeError("expected WORKLOAD:FIRST-LAST, got %r" % text)
    return workload, list(range(first, last + 1))


def export_trees(tmp):
    """The parent tree (git archive of HEAD) and a copy of the working tree's src and bench, under tmp."""
    parent, change = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
    os.makedirs(parent)
    archive = subprocess.run(["git", "archive", "HEAD", "src", "bench"], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(change, name), ignore=skip)
    return {"parent": parent, "change": change}


def bench_args(workload, seed, seconds):
    """The arguments bench/run.py takes for one workload and seed."""
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]


def run_side(tree, bench, workload, seed):
    """One run of the benchmark's command from tree; its result file as a dict."""
    cmd = bench["command"] + bench_args(workload, seed, bench["run_seconds"])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s failed in %s (exit %d):\n%s%s" % (" ".join(cmd), tree, proc.returncode,
                                                                 proc.stdout, proc.stderr))
    with open(os.path.join(tree, ".bench_out", "%s-seed%d-trace0.json" % (workload, seed)), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(pairs, bench):
    """Per workload and gated metric: each side's median and quartiles, and the pairs the change won.

    A metric the worker normalises by its host-speed kernel also gets the same
    comparison of its raw medians (``raw_*``): the normalisation can move a
    small change's sign, so both are kept.
    """
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        out[workload] = {"pairs": len(rows)}
        for gate in bench["end_to_end"]:
            metric, lower = gate["name"], gate["better"] == "lower"
            entry = {}
            for prefix, field in (("", "median"), ("raw_", "raw_median")):
                if not all(field in p[side]["end_to_end"][metric] for p in rows for side in ("parent", "change")):
                    continue
                sides = {side: np.array([p[side]["end_to_end"][metric][field] for p in rows])
                         for side in ("parent", "change")}
                for side, v in sides.items():
                    quartiles = map(float, np.percentile(v, [25, 50, 75]))
                    entry[prefix + side] = dict(zip(("q1", "median", "q3"), quartiles))
                better = sides["change"] < sides["parent"] if lower else sides["change"] > sides["parent"]
                entry[prefix + "change_wins"] = int(np.count_nonzero(better))
                ratio = np.median(sides["change"]) / np.median(sides["parent"])
                entry[prefix + "median_change_rel"] = float(ratio - 1.0)
            out[workload][metric] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", type=parse_spec, metavar="WORKLOAD:FIRST-LAST")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json in the repository root")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    base = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = export_trees(tmp)
        for workload, seeds in args.specs:
            for seed in seeds:
                first = ("parent", "change")[len(pairs) % 2]
                second = "change" if first == "parent" else "parent"
                pair = {"workload": workload, "seed": seed, "first": first}
                for side in (first, second):
                    pair[side] = run_side(trees[side], bench, workload, seed)
                pairs.append(pair)
                ends = {side: pair[side]["end_to_end"] for side in ("parent", "change")}
                print("%s seed %d (%s first): build_s %.4g -> %.4g, total_s %.4g -> %.4g (raw %.4g -> %.4g)" % (
                    workload, seed, first, ends["parent"]["build_s"]["median"], ends["change"]["build_s"]["median"],
                    ends["parent"]["total_s"]["median"], ends["change"]["total_s"]["median"],
                    ends["parent"]["total_s"]["raw_median"], ends["change"]["total_s"]["raw_median"]), flush=True)
    ranges = "; ".join("%s: seeds %d-%d" % (w, s[0], s[-1]) for w, s in args.specs)
    about = (
        "Each pair ran the parent tree (git archive of parent_commit) and the change tree (a copy of the working "
        "tree's src and bench) one after the other on one host with the same seed; 'first' names the side that ran "
        "first (alternating). %s. Each side is the result file bench/run.py wrote to .bench_out/, machine record "
        "included; machine.git_commit is null because neither copy is a git checkout. 'summary' gives, per workload "
        "and gated metric, each side's quartiles over the pairs and the number of pairs the change won, normalised and, "
        "under raw_*, from the raw medians." % ranges)
    payload = {
        "about": about,
        "command": " ".join(bench["command"] + bench_args("<workload>", "<seed>", bench["run_seconds"])),
        "parent_commit": base,
        "pairs": pairs,
        "summary": summarize(pairs, bench),
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
