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
	rec := make([]string, len(header))
	for _, inv := range wl.Invocations {
		rec[0] = strconv.Itoa(inv.Seq)
		rec[1] = strconv.FormatInt(inv.Arrival.Milliseconds(), 10)
		rec[2] = strconv.Itoa(inv.Fn.ID)
		rec[3] = strconv.FormatInt(inv.Exec.Milliseconds(), 10)
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
// are re-sorted by arrival time, rows at the same instant in file order,
// and re-sequenced, so hand-edited traces load cleanly. arrival_ms and
// exec_ms must lie in [0, MaxMS]. A CSV syntax error anywhere wins over
// a bad value in an earlier row; otherwise the first bad row is named.
func Read(r io.Reader, name string, catalog []*workload.Function) (workload.Workload, error) {
	byID := make(map[int]*workload.Function, len(catalog))
	for _, f := range catalog {
		byID[f.ID] = f
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var (
		keys []workload.Arrival
		rows []row
		fns  []*workload.Function
		bad  error // the first bad row's; reading goes on, as a later CSV error wins
	)
	seenFns := map[int]bool{}
	n := 0 // records read, the header included
	for ; ; n++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return workload.Workload{}, fmt.Errorf("trace: %w", err)
		}
		if bad != nil || n == 0 && rec[0] == "seq" {
			continue
		}
		got, at, err := parseRow(rec, n+1, byID)
		if err != nil {
			bad = err
			continue
		}
		if !seenFns[got.fn.ID] {
			seenFns[got.fn.ID] = true
			fns = append(fns, got.fn)
		}
		keys = append(keys, workload.Arrival{At: at, Of: len(rows)})
		rows = append(rows, got)
	}
	if n == 0 {
		return workload.Workload{}, fmt.Errorf("trace: empty input")
	}
	if bad != nil {
		return workload.Workload{}, bad
	}
	workload.SortArrivals(keys)
	invs := make([]workload.Invocation, len(keys))
	for i, k := range keys {
		invs[i] = workload.Invocation{Seq: i, Fn: rows[k.Of].fn, Arrival: k.At, Exec: rows[k.Of].exec}
	}
	wl := workload.Workload{Name: name, Functions: fns, Invocations: invs}
	if err := wl.Validate(); err != nil {
		return workload.Workload{}, fmt.Errorf("trace: %w", err)
	}
	return wl, nil
}

// row is one trace record but its arrival, which Read keeps in the sort
// key.
type row struct {
	fn   *workload.Function
	exec time.Duration
}

// parseRow reads record number line of a trace: the row and its arrival.
func parseRow(rec []string, line int, byID map[int]*workload.Function) (row, time.Duration, error) {
	if len(rec) != len(header) {
		return row{}, 0, fmt.Errorf("trace: row %d has %d columns, want %d", line, len(rec), len(header))
	}
	arrivalMS, err1 := strconv.ParseInt(rec[1], 10, 64)
	fnID, err2 := strconv.Atoi(rec[2])
	execMS, err3 := strconv.ParseInt(rec[3], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return row{}, 0, fmt.Errorf("trace: row %d: malformed values %v", line, rec)
	}
	if arrivalMS < 0 || arrivalMS > MaxMS || execMS < 0 || execMS > MaxMS {
		return row{}, 0, fmt.Errorf("trace: row %d: arrival_ms %d or exec_ms %d outside [0, %d]",
			line, arrivalMS, execMS, MaxMS)
	}
	fn, ok := byID[fnID]
	if !ok {
		return row{}, 0, fmt.Errorf("trace: row %d: unknown function id %d", line, fnID)
	}
	return row{fn, time.Duration(execMS) * time.Millisecond}, time.Duration(arrivalMS) * time.Millisecond, nil
}
