package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
)

func TestRoundTrip(t *testing.T) {
	w := fstartbench.Build(fstartbench.Peak, 3, fstartbench.Options{Count: 50})
	var buf bytes.Buffer
	if err := Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, w.Name, fstartbench.Functions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Invocations) != len(w.Invocations) {
		t.Fatalf("round trip lost invocations: %d vs %d", len(got.Invocations), len(w.Invocations))
	}
	for i := range got.Invocations {
		a, b := got.Invocations[i], w.Invocations[i]
		if a.Fn.ID != b.Fn.ID {
			t.Fatalf("row %d: fn %d vs %d", i, a.Fn.ID, b.Fn.ID)
		}
		// Milliseconds precision: arrival may round by < 1ms.
		if d := a.Arrival - b.Arrival; d > time.Millisecond || d < -time.Millisecond {
			t.Fatalf("row %d: arrival %v vs %v", i, a.Arrival, b.Arrival)
		}
	}
}

func TestReadSortsAndResequences(t *testing.T) {
	csv := "seq,arrival_ms,fn_id,exec_ms\n5,2000,1,100\n9,1000,2,200\n"
	w, err := Read(strings.NewReader(csv), "x", fstartbench.Functions())
	if err != nil {
		t.Fatal(err)
	}
	if w.Invocations[0].Fn.ID != 2 || w.Invocations[0].Seq != 0 {
		t.Fatalf("first invocation = %+v", w.Invocations[0])
	}
	if w.Invocations[1].Seq != 1 {
		t.Fatalf("resequencing failed: %+v", w.Invocations[1])
	}
}

// TestReadKeepsTiesInFileOrder: rows at the same instant load in the
// order they appear in the file, whatever their function or exec.
func TestReadKeepsTiesInFileOrder(t *testing.T) {
	csv := "seq,arrival_ms,fn_id,exec_ms\n" +
		"0,2000,3,30\n1,1000,5,50\n2,2000,1,10\n3,1000,2,20\n4,2000,3,31\n5,0,7,70\n"
	w, err := Read(strings.NewReader(csv), "x", fstartbench.Functions())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ at, fn, exec int }{
		{0, 7, 70}, {1000, 5, 50}, {1000, 2, 20}, {2000, 3, 30}, {2000, 1, 10}, {2000, 3, 31},
	}
	if len(w.Invocations) != len(want) {
		t.Fatalf("got %d invocations, want %d", len(w.Invocations), len(want))
	}
	for i, inv := range w.Invocations {
		wi := want[i]
		if inv.Seq != i || inv.Arrival != time.Duration(wi.at)*time.Millisecond ||
			inv.Fn.ID != wi.fn || inv.Exec != time.Duration(wi.exec)*time.Millisecond {
			t.Errorf("invocation %d = {Seq %d, %v, fn %d, exec %v}, want {%d, %dms, fn %d, exec %dms}",
				i, inv.Seq, inv.Arrival, inv.Fn.ID, inv.Exec, i, wi.at, wi.fn, wi.exec)
		}
	}
	if got := []int{w.Functions[0].ID, w.Functions[1].ID, w.Functions[2].ID}; got[0] != 3 || got[1] != 5 || got[2] != 1 {
		t.Errorf("Functions start %v, want first-seen file order [3 5 1 …]", got)
	}

	// Long enough that an unstable sort would reorder ties: 300 rows
	// over four instants, each row's exec_ms its row number.
	var b strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", i, (i*7)%4*1000, i%13+1, i)
	}
	if w, err = Read(strings.NewReader(b.String()), "x", fstartbench.Functions()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(w.Invocations); i++ {
		p, q := w.Invocations[i-1], w.Invocations[i]
		if p.Arrival == q.Arrival && p.Exec >= q.Exec {
			t.Fatalf("invocations %d and %d at %v: rows %d then %d, want file order",
				i-1, i, q.Arrival, p.Exec.Milliseconds(), q.Exec.Milliseconds())
		}
	}
}

func TestReadNoHeader(t *testing.T) {
	csv := "0,1000,1,100\n"
	w, err := Read(strings.NewReader(csv), "x", fstartbench.Functions())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Invocations) != 1 {
		t.Fatalf("got %d invocations", len(w.Invocations))
	}
}

// readErrorCases are traces Read must reject; FuzzTraceRead seeds from
// them.
var readErrorCases = map[string]string{
	"empty":            "",
	"unknown fn":       "seq,arrival_ms,fn_id,exec_ms\n0,1000,99,100\n",
	"malformed":        "seq,arrival_ms,fn_id,exec_ms\n0,abc,1,100\n",
	"negative exec":    "0,0,1,-5000\n",
	"negative arrival": "0,-1,1,100\n",
	"huge arrival":     "0,9000000000000,1,100\n",
	"huge exec":        "0,1000,1,9223372036000\n",
}

func TestReadErrors(t *testing.T) {
	for name, csv := range readErrorCases {
		_, err := Read(strings.NewReader(csv), "x", fstartbench.Functions())
		if err == nil {
			t.Errorf("%s: no error", name)
		} else if !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("%s: error %q lacks the trace: prefix", name, err)
		}
	}
}

// TestReadBounds: MaxMS itself is accepted in both columns and replays.
func TestReadBounds(t *testing.T) {
	csv := fmt.Sprintf("0,%d,1,%d\n", MaxMS, MaxMS)
	w, err := Read(strings.NewReader(csv), "x", fstartbench.Functions())
	if err != nil {
		t.Fatal(err)
	}
	res := platform.New(platform.Config{}, policy.NewGreedyMatch()).Run(w)
	if res.Metrics.Count() != 1 {
		t.Fatalf("replayed %d invocations, want 1", res.Metrics.Count())
	}
}

func TestReadWrongColumnCount(t *testing.T) {
	csv := "0,1000,1\n"
	if _, err := Read(strings.NewReader(csv), "x", fstartbench.Functions()); err == nil {
		t.Fatal("short row accepted")
	}
}

// Property: any valid generated workload round-trips with arrival order
// and function identity preserved.
func TestPropertyRoundTrip(t *testing.T) {
	fns := fstartbench.Functions()
	f := func(seed int64, n uint8) bool {
		count := int(n%50) + 2
		w := fstartbench.Build(fstartbench.Random, seed, fstartbench.Options{Count: count})
		var buf bytes.Buffer
		if err := Write(&buf, w); err != nil {
			return false
		}
		got, err := Read(&buf, w.Name, fns)
		if err != nil {
			return false
		}
		if len(got.Invocations) != len(w.Invocations) {
			return false
		}
		for i := range got.Invocations {
			if got.Invocations[i].Fn.ID != w.Invocations[i].Fn.ID {
				return false
			}
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayLoadedTrace(t *testing.T) {
	// A loaded trace must run through the platform unchanged.
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 30})
	var buf bytes.Buffer
	if err := Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf, "replay", fstartbench.Functions())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Duration() == 0 {
		t.Fatal("loaded trace has zero duration")
	}
}

// FuzzTraceRead: Read never panics, and any workload it returns replays
// through platform.Run without a panic.
func FuzzTraceRead(f *testing.F) {
	for _, csv := range readErrorCases {
		f.Add(csv)
	}
	f.Add("seq,arrival_ms,fn_id,exec_ms\n5,2000,1,100\n9,1000,2,200\n")
	f.Add("0,1000,1,100\n")
	f.Add("0,1000,1\n")
	f.Add(fmt.Sprintf("0,%d,13,%d\n1,%d,13,0\n", MaxMS, MaxMS, MaxMS))
	var buf bytes.Buffer
	if err := Write(&buf, fstartbench.Build(fstartbench.Peak, 3, fstartbench.Options{Count: 20})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	fns := fstartbench.Functions()
	f.Fuzz(func(t *testing.T, csv string) {
		w, err := Read(strings.NewReader(csv), "fuzz", fns)
		if err != nil {
			return
		}
		platform.New(platform.Config{PoolCapacityMB: 512}, policy.NewGreedyMatch()).Run(w)
	})
}
