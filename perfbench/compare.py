"""Compare two sets of benchmark results: the parent commit against a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files, or directories of files, holding the standard
output of any number of ``perfbench/run.py`` runs; the record line of each
run is read.  Run both sides with the same benchmark code, seeds and
``--seconds``.

For every workload and end-to-end metric the table gives each side's median
and quartiles and one verdict:

  better      the change wins at least 9 in 10 of the seed-paired runs (ties
              count for neither) and the medians differ by more than the
              parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unchanged   neither
  unresolved  a side's run-to-run spread, its interquartile range over its
              median, is wider than the bound, and not every change run beats
              every parent run

The run record's unbounded figures (mean, median and tail op latency in
ms, successful ops per second, failed share) follow with their medians
only, and so does the reference unit time that ``op_cost`` is measured in.
A change that fails more ops than the parent gets no "better": that
verdict turns to "unresolved".  Per-layer metrics from traced runs follow.  Counts
and shares repeat exactly for a seed, so they are compared exactly, seed by
seed; timings are compared by their medians.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT_UNITS = ("count", "share")


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Run records by (workload, trace)."""
    root = Path(path)
    files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
    runs = defaultdict(list)
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith('{"perfbench"'):
                rec = json.loads(line)["perfbench"]
                runs[rec["workload"], rec["trace"]].append(rec)
    return runs


def values(records, name):
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def spread(xs):
    """(median, q1, q3, (q3 - q1) / median); quartiles need two runs."""
    m = median(xs)
    q1, _, q3 = quantiles(xs, n=4) if len(xs) > 1 else (m, m, m)
    return m, q1, q3, ((q3 - q1) / abs(m) if m else float("inf"))


def pairs(parent, change, name):
    """Seed-paired values, in run order within each seed."""
    by_seed = defaultdict(list)
    for r in parent:
        by_seed[r["seed"]].append(r["metrics"][name]["value"])
    out = []
    for r in change:
        if by_seed.get(r["seed"]):
            out.append((by_seed[r["seed"]].pop(0), r["metrics"][name]["value"]))
    return out


def repeats(records, name):
    """Whether every run of one seed gave the same value."""
    seen = {}
    for r in records:
        value = r["metrics"][name]["value"]
        if seen.setdefault(r["seed"], value) != value:
            return False
    return True


def verdict(parent_xs, change_xs, paired, better, bound, more_failures=False):
    sign = 1.0 if better == "higher" else -1.0
    mp, p1, p3, sp = spread(parent_xs)
    mc, _, _, sc = spread(change_xs)
    if len(parent_xs) < 2 or len(change_xs) < 2 or max(sp, sc) > bound:
        all_better = all(sign * (c - p) > 0 for c in change_xs for p in parent_xs)
        result = "better" if all_better else "unresolved"
    elif sign * (mp - mc) / abs(mp) > bound:
        result = "worse"
    else:
        wins = sum(1 for p, c in paired if sign * (c - p) > 0)
        won = bool(paired) and wins >= 0.9 * len(paired)
        result = "better" if won and abs(mc - mp) > p3 - p1 else "unchanged"
    if result == "better" and more_failures:
        result = "unresolved"
    return result


def _fmt(x):
    return f"{x:.4g}"


def compare(parent_runs, change_runs, out=sys.stdout):
    spec = json.loads(SPEC_PATH.read_text())
    workloads = sorted({w for w, _ in parent_runs} | {w for w, _ in change_runs})
    print("end-to-end (untraced runs)", file=out)
    print(f"{'workload':<10} {'metric':<15} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'delta':>8}  verdict", file=out)
    for w in workloads:
        p, c = parent_runs.get((w, 0), []), change_runs.get((w, 0), [])
        if not (p and c):
            print(f"{w:<10} missing untraced runs on one side", file=out)
            continue
        fails = [(sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
                 for side in (p, c)]
        more_failures = fails[1][0] * fails[0][1] > fails[0][0] * fails[1][1]
        for m in spec["end_to_end"]:
            px, cx = values(p, m["name"]), values(c, m["name"])
            (mp, p1, p3, _), (mc, c1, c3, _) = spread(px), spread(cx)
            v = verdict(px, cx, pairs(p, c, m["name"]), m["better"], m["bound"], more_failures)
            print(f"{w:<10} {m['name']:<15} {f'{_fmt(mp)} [{_fmt(p1)}, {_fmt(p3)}]':<30} "
                  f"{f'{_fmt(mc)} [{_fmt(c1)}, {_fmt(c3)}]':<30} "
                  f"{(mc - mp) / mp:>+8.1%}  {v}", file=out)
        for name in p[0]["unbounded"]:
            xs = [[r["unbounded"][name] for r in side if r["unbounded"][name] is not None]
                  for side in (p, c)]
            if not all(xs):
                print(f"{w:<10} {name:<15} not reported on one side", file=out)
                continue
            mp, mc = median(xs[0]), median(xs[1])
            delta = f"{(mc - mp) / abs(mp):>+8.1%}" if mp else f"{'n/a':>8}"
            print(f"{w:<10} {name:<15} {_fmt(mp):<30} {_fmt(mc):<30} {delta}  (no bound)",
                  file=out)
        refs = [[r["reference"]["unit_ms"] for r in side if "reference" in r] for side in (p, c)]
        if all(refs):
            print(f"{w:<10} {'ref_unit_ms':<15} {_fmt(median(refs[0])):<30} "
                  f"{_fmt(median(refs[1])):<30} {'':>8}  (base of op_cost)", file=out)
        print(f"{w:<10} failed ops: parent {fails[0][0]}/{fails[0][1]}, "
              f"change {fails[1][0]}/{fails[1][1]}"
              + ("  (more failures: no gain counts)" if more_failures else ""), file=out)

    print("\nper layer (traced runs)", file=out)
    for w in workloads:
        p, c = parent_runs.get((w, 1), []), change_runs.get((w, 1), [])
        if not (p and c):
            print(f"{w:<10} missing traced runs on one side", file=out)
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            if m["unit"] in EXACT_UNITS:
                paired = pairs(p, c, name)
                status = "equal" if all(a == b for a, b in paired) else "differs"
                if not paired:
                    status = "no common seed"
                if not (repeats(p, name) and repeats(c, name)):
                    status += ", not repeatable for one seed"
                shown = ", ".join(f"{_fmt(a)}->{_fmt(b)}" for a, b in paired[:3] if a != b)
                print(f"{w:<10} {name:<32} {status}" + (f"  {shown}" if shown else ""), file=out)
            else:
                mp, mc = median(values(p, name)), median(values(c, name))
                delta = f"{(mc - mp) / abs(mp):+.1%}" if mp else "n/a"
                print(f"{w:<10} {name:<32} {_fmt(mp)} -> {_fmt(mc)} {m['unit']}  ({delta})",
                      file=out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    compare(load(argv[0]), load(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
