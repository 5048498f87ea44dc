#!/bin/sh
# layout_probe.sh — how much of a BenchmarkTrainStep reading is code
# layout. Builds one tree, without editing it, into drl test binaries
# whose nn and drl code is shifted by 0, 32, 64 and 96 bytes, and
# prints the median ns/op of each shift. The shift comes from a
# `go build -overlay` padding file in internal/nn: N empty //go:noinline
# functions called from an init, which sort before every other nn file;
# the script reads the actual shift of (*Agent).TrainStep off `go tool
# nm` and keeps the first N that lands on each shift mod 128.
#
# Usage: scripts/layout_probe.sh [tree]   (default: this checkout)
# Each shift runs 7 times at -test.benchtime 400x, the shifts
# alternating. Takes about half a minute on two cores.
# Not part of check.sh: it measures, it does not gate.
set -eu

here=$(cd "$(dirname "$0")/.." && pwd)
tree=$(cd "${1:-$here}" && pwd)
runs=7
benchtime=400x
sym='mlcr/internal/drl.(*Agent).TrainStep'
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# build <pads>: the drl test binary with <pads> padding functions in nn
# (none for 0); prints the address of $sym in decimal.
build() {
    bin="$work/drl.$1.test"
    if [ "$1" -eq 0 ]; then
        (cd "$tree" && go test -c -o "$bin" ./internal/drl)
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
        (cd "$tree" && go test -c -overlay "$work/overlay.$1.json" -o "$bin" ./internal/drl)
    fi
    addr=$(go tool nm "$bin" | awk -v s="$sym" '$3 == s { print $1 }')
    echo $((0x$addr))
}

base=$(build 0)
echo "0 0" > "$work/picked"
pads=1
while [ "$pads" -le 12 ] && [ "$(wc -l < "$work/picked")" -lt 4 ]; do
    shift=$(( (($(build $pads) - base) % 128 + 128) % 128 ))
    if [ $((shift % 32)) -eq 0 ] && ! awk -v s="$shift" '$1 == s { f = 1 } END { exit !f }' "$work/picked"; then
        echo "$shift $pads" >> "$work/picked"
    fi
    pads=$((pads + 1))
done
sort -n "$work/picked" -o "$work/picked"

r=1
while [ "$r" -le "$runs" ]; do
    while read -r shift pads; do
        (cd "$tree/internal/drl" && "$work/drl.$pads.test" -test.run '^$' -test.bench '^BenchmarkTrainStep$' \
            -test.benchtime "$benchtime" -test.timeout 10m) |
            awk -v s="$shift" '/^BenchmarkTrainStep/ { print s, $3 }' >> "$work/ns"
    done < "$work/picked"
    r=$((r + 1))
done

echo "tree: $tree"
echo "runs: $runs x $benchtime per shift, alternating"
printf '%-6s %-5s %14s %14s %14s\n' shift pads median_ns/op min_ns/op max_ns/op
while read -r shift pads; do
    awk -v s="$shift" '$1 == s { print $2 }' "$work/ns" | sort -n |
        awk -v s="$shift" -v p="$pads" '{ v[NR] = $1 }
            END { m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
                  printf "%-6d %-5d %14.0f %14.0f %14.0f\n", s, p, m, v[1], v[NR] }'
done < "$work/picked"
