// Package trace serializes workloads as CSV traces and loads them back,
// so externally produced traces (or FStartBench exports) can be replayed
// through the simulator. The format is one row per invocation:
//
//	seq,arrival_ms,fn_id,exec_ms
//
// Function metadata travels separately: the loader resolves fn_id
// against a function catalog supplied by the caller (e.g. FStartBench's
// 13 functions).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"mlcr/internal/workload"
)

// header is the canonical column order.
var header = []string{"seq", "arrival_ms", "fn_id", "exec_ms"}

// MaxMS bounds arrival_ms and exec_ms: a quarter of the largest
// millisecond count a time.Duration holds (about 73 years). Arrival plus
// execution then stays under half the Duration range, which leaves the
// other half for startup, so the simulator's Arrival+startup+Exec cannot
// overflow.
const MaxMS = int64(math.MaxInt64/time.Millisecond) / 4

// Write emits the workload's invocations as CSV.
func Write(w io.Writer, wl workload.Workload) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, inv := range wl.Invocations {
		rec := []string{
			strconv.Itoa(inv.Seq),
			strconv.FormatInt(inv.Arrival.Milliseconds(), 10),
			strconv.Itoa(inv.Fn.ID),
			strconv.FormatInt(inv.Exec.Milliseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Read parses a CSV trace, resolving function IDs against catalog. Rows
// are re-sorted by arrival time and re-sequenced, so hand-edited traces
// load cleanly. arrival_ms and exec_ms must lie in [0, MaxMS].
func Read(r io.Reader, name string, catalog []*workload.Function) (workload.Workload, error) {
	byID := make(map[int]*workload.Function, len(catalog))
	for _, f := range catalog {
		byID[f.ID] = f
	}
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return workload.Workload{}, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 {
		return workload.Workload{}, fmt.Errorf("trace: empty input")
	}
	start := 0
	if rows[0][0] == "seq" {
		start = 1
	}
	var invs []workload.Invocation
	seenFns := map[int]bool{}
	var fns []*workload.Function
	for i, row := range rows[start:] {
		if len(row) != len(header) {
			return workload.Workload{}, fmt.Errorf("trace: row %d has %d columns, want %d", i+start+1, len(row), len(header))
		}
		arrivalMS, err1 := strconv.ParseInt(row[1], 10, 64)
		fnID, err2 := strconv.Atoi(row[2])
		execMS, err3 := strconv.ParseInt(row[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return workload.Workload{}, fmt.Errorf("trace: row %d: malformed values %v", i+start+1, row)
		}
		if arrivalMS < 0 || arrivalMS > MaxMS || execMS < 0 || execMS > MaxMS {
			return workload.Workload{}, fmt.Errorf("trace: row %d: arrival_ms %d or exec_ms %d outside [0, %d]",
				i+start+1, arrivalMS, execMS, MaxMS)
		}
		fn, ok := byID[fnID]
		if !ok {
			return workload.Workload{}, fmt.Errorf("trace: row %d: unknown function id %d", i+start+1, fnID)
		}
		if !seenFns[fnID] {
			seenFns[fnID] = true
			fns = append(fns, fn)
		}
		invs = append(invs, workload.Invocation{
			Fn:      fn,
			Arrival: time.Duration(arrivalMS) * time.Millisecond,
			Exec:    time.Duration(execMS) * time.Millisecond,
		})
	}
	sort.SliceStable(invs, func(a, b int) bool { return invs[a].Arrival < invs[b].Arrival })
	for i := range invs {
		invs[i].Seq = i
	}
	wl := workload.Workload{Name: name, Functions: fns, Invocations: invs}
	if err := wl.Validate(); err != nil {
		return workload.Workload{}, fmt.Errorf("trace: %w", err)
	}
	return wl, nil
}
