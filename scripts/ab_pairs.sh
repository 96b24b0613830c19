#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark — the procedure a PR
# that claims (or denies) a performance change has to follow:
#
#   scripts/ab_pairs.sh <parent-ref> <workload|all> <pairs> [seconds]
#
# Two checkouts, each built into its own CARGO_TARGET_DIR: <parent-ref>, and
# the working tree's tracked files (stage new files first; uncommitted edits
# are included). Every pair runs `benchmark/run.sh --trace 0` once on each
# side with the same fresh seed, and pairs alternate which side goes first;
# `all` does so for every workload BENCHMARK.json names, one after the other.
# Prints, per end-to-end metric of BENCHMARK.json, each side's median and
# quartiles, wins / ties for the change, and two verdicts:
#
#   gain rule   `holds` when at least nine tenths of the pairs are won and
#               the medians are further apart than the parent's own quartile
#               distance — what a PR that claims a gain has to show
#   no worse    what a PR that claims none has to show: `ok` when the
#               change's median is no worse than the parent's by more than
#               the metric's bound; `unresolved` when the parent's own
#               quartile distance over its median exceeds that bound (the
#               runs cannot tell), unless every run of the change beats every
#               run of the parent; `WORSE` otherwise
#
# then `benchmark/run.sh compare`'s verdict. Exits non-zero on any `WORSE`.
# A run that exits non-zero is listed in the summary line by seed; only what
# it wrote counts, and a pair is scored (and compared) only when both of its
# runs wrote a report. Each run's stdout and stderr stay in
# <workload>.<side>.<seed>.{stdout,stderr}.
#
#   AB_DIR   where the checkouts, target dirs and run files go
#            (default: a fresh directory under ${TMPDIR:-/tmp}); kept, so a
#            second invocation reuses the builds
#   AB_SEED  seed of the first pair (default 1000); pair i uses AB_SEED + i
set -euo pipefail
if [ $# -lt 3 ]; then
    sed -n '2,30p' "$0" >&2
    exit 2
fi
parent_ref=$1 pairs=$3 seconds=${4:-10}
repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
dir="${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")}"
seed0="${AB_SEED:-1000}"
mkdir -p "$dir"
workloads=("$2")
if [ "$2" = all ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo/BENCHMARK.json")
fi

# `git stash create` names the working tree as a commit without touching it.
change_ref="$(git -C "$repo" stash create)"
checkout() { # <side> <ref>
    rm -rf "${dir:?}/$1"
    mkdir -p "$dir/$1"
    git -C "$repo" archive "$2" | tar -x -C "$dir/$1"
}
checkout parent "$parent_ref"
checkout change "${change_ref:-HEAD}"

run() { # <side> <seed>
    local out="$dir/$workload.$1.run" log="$dir/$workload.$1.$2"
    rm -f "$out"
    (cd "$dir/$1" && CARGO_TARGET_DIR="$dir/$1-target" bash benchmark/run.sh \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 --json "$out" \
        >"$log.stdout" 2>"$log.stderr") || {
        echo "pair seed $2: $1 exited non-zero (see $log.stdout and .stderr)" >&2
        echo "$2" >>"$dir/$workload.$1.failed"
    }
    if [ -s "$out" ]; then
        cat "$out" >>"$dir/$workload.$1.json"
        echo >>"$dir/$workload.$1.json"
    fi
}

status=0
for workload in "${workloads[@]}"; do
    rm -f "$dir/$workload".{parent,change}.{json,failed}
    touch "$dir/$workload".{parent,change}.{json,failed}
    for ((i = 0; i < pairs; i++)); do
        order=(parent change)
        ((i % 2)) && order=(change parent)
        for side in "${order[@]}"; do
            run "$side" $((seed0 + i))
        done
        echo "$workload pair $((i + 1))/$pairs (seed $((seed0 + i)), ${order[0]} first) done" >&2
    done

    python3 - "$repo/BENCHMARK.json" "$workload" "$dir/$workload" <<'EOF' || status=1
import json, statistics, sys
spec, workload, prefix = sys.argv[1:]
runs = lambda side: {r["seed"]: r for r in map(json.loads, filter(str.strip, open(f"{prefix}.{side}.json")))}
parent, change = runs("parent"), runs("change")
seeds = sorted(parent.keys() & change.keys())
parent, change = [parent[s] for s in seeds], [change[s] for s in seeds]
for side, paired in (("parent", parent), ("change", change)):
    with open(f"{prefix}.{side}.paired.json", "w") as out:
        out.writelines(json.dumps(r) + "\n" for r in paired)
failed = lambda side: "[" + " ".join(open(f"{prefix}.{side}.failed").read().split()) + "]"
print(f"{workload}: {len(seeds)} pairs; failed runs parent {failed('parent')} "
      f"change {failed('change')}; failed ops parent "
      f"{sum(r['failed'] for r in parent)} change {sum(r['failed'] for r in change)}; "
      f"incorrect runs parent {sum(not r['correct'] for r in parent)} "
      f"change {sum(not r['correct'] for r in change)}")
if len(seeds) < 2:
    sys.exit("fewer than two pairs with a report on both sides: nothing to score")
def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3
print(f"{'metric':<20} {'parent med [q1, q3]':<36} {'change med [q1, q3]':<36} "
      f"{'delta':>8} {'wins':>5} {'ties':>5}  {'gain rule':<9}  no worse")
any_worse = False
for m in json.load(open(spec))["end_to_end"]:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    ties = sum(x == y for x, y in zip(p, c))
    (pm, p1, p3), (cm, c1, c3) = quartiles(p), quartiles(c)
    better = (cm - pm) if higher else (pm - cm)
    gain = wins * 10 >= len(p) * 9 and better > (p3 - p1)
    if (p3 - p1) > bound * abs(pm):
        every_run_better = min(c) > max(p) if higher else max(c) < min(p)
        verdict = "ok" if every_run_better else "unresolved"
    else:
        verdict = "ok" if -better <= bound * abs(pm) else "WORSE"
    any_worse |= verdict == "WORSE"
    fmt = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
    delta = f"{100 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
    print(f"{name:<20} {fmt(pm, p1, p3):<36} {fmt(cm, c1, c3):<36} "
          f"{delta:>8} {wins:>5} {ties:>5}  {'holds' if gain else '-':<9}  {verdict}")
sys.exit(any_worse)
EOF
    echo "--- benchmark/run.sh compare (BENCHMARK.json bounds, change against parent, paired runs)"
    (cd "$dir/change" && CARGO_TARGET_DIR="$dir/change-target" bash benchmark/run.sh \
        compare "$dir/$workload".{parent,change}.paired.json) || true
    echo "runs kept in $dir/$workload.{parent,change}.json, paired runs in .paired.json"
done
exit $status
