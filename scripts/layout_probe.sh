#!/bin/sh
# layout_probe.sh — how much of a BenchmarkTrainStep or
# BenchmarkQNetworkForward reading is code layout. Builds one tree,
# without editing it, into drl and root-module test binaries whose nn
# and drl code is shifted by 0, 32, 64 and 96 bytes, and prints the
# median ns/op of each benchmark at each shift. The shift comes from a
# `go build -overlay` padding file in internal/nn: N empty //go:noinline
# functions called from an init, which sort before every other nn file;
# the script reads the actual shift of (*Learner).TrainStep off `go
# tool nm` and keeps the first N that lands on each shift mod 128. The root
# binary is built through the same overlay; its fwd_shift column is the
# shift of (*QNetwork).Forward read the same way.
#
# Usage: scripts/layout_probe.sh [tree]   (default: this checkout)
# Each shift runs 7 times, BenchmarkTrainStep at -test.benchtime 400x
# and BenchmarkQNetworkForward at 50000x, the shifts alternating. Takes
# under a minute on two cores once the build cache is warm.
# Not part of check.sh: it measures, it does not gate.
set -eu

here=$(cd "$(dirname "$0")/.." && pwd)
tree=$(cd "${1:-$here}" && pwd)
runs=7
# The DQN update is a method of drl.Learner; trees older than the
# learner (a parent of an A/B, say) have it on drl.Agent.
train_sym='mlcr/internal/drl.(*Learner).TrainStep'
grep -q 'func (l \*Learner) TrainStep' "$tree/internal/drl/dqn.go" ||
    train_sym='mlcr/internal/drl.(*Agent).TrainStep'
fwd_sym='mlcr/internal/drl.(*QNetwork).Forward'
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# build <pads> <name> <package> <symbol>: the package's test binary,
# $work/<name>.<pads>.test, with <pads> padding functions in nn (none
# for 0); prints the address of <symbol> in decimal.
build() {
    bin="$work/$2.$1.test"
    if [ "$1" -eq 0 ]; then
        (cd "$tree" && go test -c -o "$bin" "$3")
    else
        pad="$work/pad.$1.go"
        {
            echo "package nn"
            i=0
            while [ "$i" -lt "$1" ]; do
                printf '\n//go:noinline\nfunc layoutPad%d() {}\n' "$i"
                i=$((i + 1))
            done
            printf '\nfunc init() {\n'
            i=0
            while [ "$i" -lt "$1" ]; do
                printf '\tlayoutPad%d()\n' "$i"
                i=$((i + 1))
            done
            printf '}\n'
        } > "$pad"
        printf '{"Replace":{"%s":"%s"}}\n' "$tree/internal/nn/aaa_layout_pad.go" "$pad" > "$work/overlay.$1.json"
        (cd "$tree" && go test -c -overlay "$work/overlay.$1.json" -o "$bin" "$3")
    fi
    addr=$(go tool nm "$bin" | awk -v s="$4" '$3 == s { print $1 }')
    echo $((0x$addr))
}

# shift_of <addr> <base>: the shift mod 128 in bytes.
shift_of() { echo $(( (($1 - $2) % 128 + 128) % 128 )); }

base=$(build 0 drl ./internal/drl "$train_sym")
echo "0 0" > "$work/picked"
pads=1
while [ "$pads" -le 12 ] && [ "$(wc -l < "$work/picked")" -lt 4 ]; do
    shift=$(shift_of "$(build $pads drl ./internal/drl "$train_sym")" "$base")
    if [ $((shift % 32)) -eq 0 ] && ! awk -v s="$shift" '$1 == s { f = 1 } END { exit !f }' "$work/picked"; then
        echo "$shift $pads" >> "$work/picked"
    fi
    pads=$((pads + 1))
done
sort -n "$work/picked" -o "$work/picked"

# The root binaries, at the pads picked for the drl ones.
root_base=$(build 0 root . "$fwd_sym")
while read -r shift pads; do
    addr=$root_base
    [ "$pads" -eq 0 ] || addr=$(build "$pads" root . "$fwd_sym")
    echo "$shift $(shift_of "$addr" "$root_base")" >> "$work/fwd_shift"
done < "$work/picked"

# bench <dir> <binary> <benchmark> <benchtime> <shift>: one run,
# appending "<benchmark> <shift> <ns/op>" to $work/ns.
bench() {
    (cd "$1" && "$2" -test.run '^$' -test.bench "^$3\$" -test.benchtime "$4" -test.timeout 10m) |
        awk -v b="$3" -v s="$5" '$1 ~ "^" b { print b, s, $3 }' >> "$work/ns"
}

r=1
while [ "$r" -le "$runs" ]; do
    while read -r shift pads; do
        bench "$tree/internal/drl" "$work/drl.$pads.test" BenchmarkTrainStep 400x "$shift"
        bench "$tree" "$work/root.$pads.test" BenchmarkQNetworkForward 50000x "$shift"
    done < "$work/picked"
    r=$((r + 1))
done

# median <benchmark> <shift>: "median min max" of its ns/op.
median() {
    awk -v b="$1" -v s="$2" '$1 == b && $2 == s { print $3 }' "$work/ns" | sort -n |
        awk '{ v[NR] = $1 }
            END { m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
                  printf "%.0f %.0f %.0f", m, v[1], v[NR] }'
}

echo "tree: $tree"
echo "runs: $runs per shift, alternating; TrainStep at 400x, QNetworkForward at 50000x"
printf '%-6s %-5s %-9s %12s %10s %10s %12s %10s %10s\n' shift pads fwd_shift \
    train_median train_min train_max fwd_median fwd_min fwd_max
while read -r shift pads; do
    fwd_shift=$(awk -v s="$shift" '$1 == s { print $2 }' "$work/fwd_shift")
    printf '%-6d %-5d %-9d %12d %10d %10d %12d %10d %10d\n' "$shift" "$pads" "$fwd_shift" \
        $(median BenchmarkTrainStep "$shift") $(median BenchmarkQNetworkForward "$shift")
done < "$work/picked"
