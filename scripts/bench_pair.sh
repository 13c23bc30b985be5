#!/usr/bin/env bash
# Paired parent/change runs of the repo's benchmark, the protocol every
# performance PR needs (choosing-metrics §6 and §8), in one command.
#
#   scripts/bench_pair.sh <parent-rev> [workload…] [--pairs N] [--seconds S]
#                         [--claim WORKLOAD] [--second-seed N]
#
# `git archive`s <parent-rev> next to the build outputs, builds it and the
# working tree (the change) each into its own CARGO_TARGET_DIR, then for
# every workload (default: all of BENCHMARK.json's) runs
#
#   pipeline_bench/run.sh --workload W --seed 1991 --seconds 16 --trace 0
#
# on both, N times (default 10), alternating which side goes first, and —
# as a second, low-noise reading — the same call under `taskset -c 0` with
# `--trace 1`, from which it takes `cli.cpu_s` (the children's user+sys
# CPU). `--claim W` repeats workload W on a second seed (default 7) the
# change was not developed on. It prints, per workload × end-to-end
# metric: both medians with quartiles, wins / pairs, and the verdict
#
#   resolved-better  change wins ≥ 9/10 of the pairs and the medians are
#                    further apart than the parent's inter-quartile distance
#   unchanged        the change's median is no worse than the parent's by
#                    more than the metric's bound (BENCHMARK.json)
#   unresolved       the parent's own spread exceeds that bound, and not
#                    every change run beat every parent run
#   REGRESSED        worse than the parent by more than the bound
#
# formatted as the paragraph CHANGES.md wants. It only *calls* the
# harness; nothing under pipeline_bench/ is edited. Build outputs and the
# raw result lines stay in <target>/bench-pair/ for the next invocation.
set -euo pipefail

usage() { sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 64; }

pairs=10 seconds=16 seed=1991 second_seed=7 claim="" parent_rev="" workloads=()
while (($#)); do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --second-seed) second_seed="$2"; shift 2 ;;
        --claim) claim="$2"; shift 2 ;;
        -h | --help) usage ;;
        -*) echo "bench_pair: unknown option $1" >&2; usage ;;
        *) if [[ -z "$parent_rev" ]]; then parent_rev="$1"; else workloads+=("$1"); fi; shift ;;
    esac
done
[[ -n "$parent_rev" ]] || usage

repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
parent_sha="$(git -C "$repo" rev-parse --short=12 "$parent_rev^{commit}")"
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
fi

root="${CARGO_TARGET_DIR:-$repo/target}"
case "$root" in /*) ;; *) root="$PWD/$root" ;; esac
root="$root/bench-pair"
parent_tree="$root/parent-$parent_sha/src"
parent_target="$root/parent-$parent_sha/target"
change_target="$root/change/target"
results="$root/results-$parent_sha-$$.jsonl"
log="$root/harness-$parent_sha-$$.log"
trap 'echo "bench_pair: failed; the harness wrote its stderr to $log" >&2' ERR
mkdir -p "$root/change"
rm -rf "$parent_tree" && mkdir -p "$parent_tree"
git -C "$repo" archive "$parent_sha" | tar -x -C "$parent_tree"

build() { # tree target
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet -p ppa-cli --bin ppa &&
        CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet --manifest-path pipeline_bench/Cargo.toml)
}
echo "bench_pair: building parent $parent_sha and the change ..." >&2
build "$parent_tree" "$parent_target"
build "$repo" "$change_target"

have_taskset=1
taskset -c 0 true 2>/dev/null || { have_taskset=0; echo "bench_pair: no taskset; skipping the CPU reading" >&2; }

run_side() { # side workload seed pair
    local side="$1" tree="$repo" target="$change_target" trace pin line
    [[ "$side" == parent ]] && tree="$parent_tree" target="$parent_target"
    # The end-to-end reading, then the traced one pinned to one CPU.
    for trace in 0 1; do
        pin=(env)
        if ((trace)); then
            ((have_taskset)) || continue
            pin=(taskset -c 0)
        fi
        line="$(cd "$tree" && CARGO_TARGET_DIR="$target" "${pin[@]}" bash pipeline_bench/run.sh \
            --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" 2>>"$log" | tail -n 1)"
        printf '{"side": "%s", "workload": "%s", "seed": %s, "pair": %s, "trace": %s, "result": %s}\n' \
            "$side" "$2" "$3" "$4" "$trace" "$line" >>"$results"
    done
}

: >"$results" >"$log"
for w in "${workloads[@]}"; do
    seeds=("$seed")
    [[ "$w" == "$claim" ]] && seeds+=("$second_seed")
    for s in "${seeds[@]}"; do
        for ((p = 1; p <= pairs; p++)); do
            echo "bench_pair: $w seed $s pair $p/$pairs" >&2
            if ((p % 2)); then order=(parent change); else order=(change parent); fi
            for side in "${order[@]}"; do run_side "$side" "$w" "$s" "$p"; done
        done
    done
done

python3 - "$results" "$repo/BENCHMARK.json" "$parent_sha" "$pairs" "$seconds" <<'PY'
import json, platform, statistics, subprocess, sys

results, benchmark, parent_sha, pairs, seconds = sys.argv[1:6]
bench = json.load(open(benchmark))
rows = [json.loads(line) for line in open(results)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def fmt(x):
    for scale, suffix in ((1e6, " M"), (1e3, " k")):
        if abs(x) >= scale:
            return f"{x / scale:.3f}{suffix}"
    return f"{x:.4g}"

def verdict(parent, change, higher, bound):
    """choosing-metrics §6.5 and §8, for one workload x metric."""
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    n = len(parent)
    if n < 10:
        word = "no verdict under ten pairs"
    elif better(cm, pm) and wins * 10 >= n * 9 and abs(cm - pm) > q3 - q1:
        word = "resolved-better"
    else:
        worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
        every_run_better = better(min(change), max(parent)) if higher else better(max(change), min(parent))
        if pm and (q3 - q1) / pm > bound and not every_run_better:
            word = "unresolved"
        elif worse_by > bound:
            word = "REGRESSED"
        else:
            word = "unchanged"
    return wins, losses, word

def series(workload, seed, trace, name):
    out = {}
    for side in ("parent", "change"):
        picked = sorted(
            (r for r in rows if (r["side"], r["workload"], r["seed"], r["trace"]) == (side, workload, seed, trace)),
            key=lambda r: r["pair"],
        )
        out[side] = [r["result"]["metrics"][name]["value"] for r in picked]
    return out["parent"], out["change"]

def describe(name, unit, parent, change, higher, bound):
    wins, losses, word = verdict(parent, change, higher, bound)
    pm, cm = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    ratio = f"{cm / pm:.3f}x of the parent's median" if pm else "parent 0"
    return (f"`{name}` {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] -> {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] {unit} "
            f"({ratio}, change better in {wins}/{len(parent)}, worse in {losses}): **{word}**")

try:
    cpu = next(l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name"))
except (OSError, StopIteration):
    cpu = platform.processor() or "unknown CPU"
nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
print(f"bench_pair: parent {parent_sha} vs the working tree, {pairs} alternating pair(s) per row, "
      f"`pipeline_bench/run.sh --seconds {seconds} --trace 0`; host {nproc} x {cpu}, {platform.system()} {platform.release()}. "
      f"Median [q1, q3]; verdicts by choosing-metrics §6.5/§8 against BENCHMARK.json's bounds.")
keys = sorted({(r["workload"], r["seed"]) for r in rows}, key=lambda k: ([w["name"] for w in bench["workloads"]].index(k[0]), k[1]))
ok = True
for workload, seed in keys:
    mine = [r for r in rows if (r["workload"], r["seed"]) == (workload, seed)]
    attempted = sum(r["result"]["attempted"] for r in mine)
    failed = sum(r["result"]["failed"] for r in mine)
    correct = all(r["result"]["correct"] for r in mine)
    ok = ok and correct and failed == 0
    parts = []
    for m in bench["end_to_end"]:
        parent, change = series(workload, seed, 0, m["name"])
        parts.append(describe(m["name"], m["unit"], parent, change, m["better"] == "higher", m["bound"]))
    parent, change = series(workload, seed, 1, "cli.cpu_s")
    if parent and change:
        parts.append("child user+sys under `taskset -c 0`: " + describe("cli.cpu_s", "s", parent, change, False, 0.25))
        # Where the difference sits (choosing-metrics §6.6), from the same
        # traced runs: layer self times that moved, and whether every
        # count the layers report repeated exactly.
        moved, differing = [], []
        for m in bench["per_layer"]:
            parent, change = series(workload, seed, 1, m["name"])
            if m["name"].endswith("busy_s"):
                pm, cm = statistics.median(parent), statistics.median(change)
                if pm and abs(cm - pm) / pm > 0.10:
                    moved.append(f"`{m['name']}` {fmt(pm)} -> {fmt(cm)} s ({cm / pm:.2f}x)")
            elif m["unit"] in ("count", "B") and (len(set(parent + change)) > 1):
                differing.append(f"`{m['name']}` {fmt(statistics.median(parent))} -> {fmt(statistics.median(change))}")
        parts.append("layer self times that moved by more than 10 %: " + (", ".join(moved) or "none"))
        parts.append("layer counts that did not repeat exactly: " + (", ".join(differing) or "none"))
    print(f"- `{workload}` (seed {seed}; {failed} of {attempted} operations failed, every run correct: {str(correct).lower()}): "
          + "; ".join(parts) + ".")
sys.exit(0 if ok else 1)
PY
