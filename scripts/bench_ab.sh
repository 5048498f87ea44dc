#!/bin/sh
# bench_ab.sh — the performance gate: the repository benchmark run as
# alternating parent-vs-change pairs on this box, each pair judged by the
# benchmark's own bounds (bench/run.sh -compare). The parent is REF
# (default HEAD) checked out as a worktree under .bench_build/parent;
# the change is the working tree. Pair i runs both sides on seed i and
# swaps which side goes first, so neither side always gets the box's
# faster state. Exit 1 when more than half of PAIRS (default 3) regress:
# an exact simulated metric on sim_* or a real slow-down past the bound
# worsens in every pair, one pair straddling the box's two speed states
# (bench/README.md) does not. Arguments go to both sides' bench/run.sh,
# e.g. `-only sim_cluster --seconds 5`. Run from anywhere, or via
# `make bench-ab`; takes about 4 min per side and pair at the defaults.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)
parent="$root/.bench_build/parent"
out="$root/.bench_build/ab"
pairs=${PAIRS:-3}

cleanup() {
    git worktree remove --force "$parent" 2>/dev/null || rm -rf "$parent"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' HUP INT TERM

cleanup # what a killed run left behind
mkdir -p "$out"
git worktree add --detach "$parent" "${REF:-HEAD}"

# run <checkout> <seed> <result set> [bench/run.sh flags]
run() {
    dir=$1 seed=$2 set=$3
    shift 3
    echo "== ${set##*/} =="
    (cd "$dir" && bash bench/run.sh --seed "$seed" "$@" -out "$set" >/dev/null)
}

fails=0
i=1
while [ "$i" -le "$pairs" ]; do
    a="$out/parent_$i.json" b="$out/change_$i.json"
    if [ $((i % 2)) -eq 1 ]; then
        run "$parent" "$i" "$a" "$@" && run "$root" "$i" "$b" "$@"
    else
        run "$root" "$i" "$b" "$@" && run "$parent" "$i" "$a" "$@"
    fi && bash bench/run.sh -compare "$a" "$b" || fails=$((fails + 1))
    i=$((i + 1))
done
echo "bench-ab: $fails of $pairs pairs regressed or failed"
[ $((2 * fails)) -le "$pairs" ]
