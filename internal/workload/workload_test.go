package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mlcr/internal/image"
)

func testFn(id int, name, os string) *Function {
	return &Function{
		ID: id, Name: name,
		Image: image.NewImage(name,
			image.Package{Name: os, Version: "1", Level: image.OS, SizeMB: 10, Pull: 100 * time.Millisecond, Install: 10 * time.Millisecond},
			image.Package{Name: "python", Version: "3.9", Level: image.Language, SizeMB: 50, Pull: 500 * time.Millisecond, Install: 50 * time.Millisecond},
		),
		Create: 200 * time.Millisecond, Clean: 50 * time.Millisecond,
		RuntimeInit: 100 * time.Millisecond, FunctionInit: 30 * time.Millisecond,
		Exec: time.Second, MemoryMB: 128,
	}
}

// TestFunctionValidate pins every error string: api.NewGateway and
// trace.Read wrap them into what their callers see.
func TestFunctionValidate(t *testing.T) {
	if err := testFn(1, "a", "alpine").Validate(); err != nil {
		t.Fatalf("valid function rejected: %v", err)
	}
	for _, c := range []struct {
		mutate func(f *Function)
		want   string
	}{
		{func(f *Function) { f.ID = 0 }, `function "a": ID must be positive, got 0`},
		{func(f *Function) { f.ID = -3 }, `function "a": ID must be positive, got -3`},
		{func(f *Function) { f.Image = image.NewImage("x") }, `function "a": image has no OS-level package`},
		{func(f *Function) { f.MemoryMB = 0 }, `function "a": MemoryMB must be positive, got 0`},
		{func(f *Function) { f.MemoryMB = -1.5 }, `function "a": MemoryMB must be positive, got -1.5`},
		{func(f *Function) { f.Create = -time.Millisecond }, `function "a": Create must be non-negative, got -1ms`},
		{func(f *Function) { f.Clean = -time.Second }, `function "a": Clean must be non-negative, got -1s`},
		{func(f *Function) { f.RuntimeInit = -1 }, `function "a": RuntimeInit must be non-negative, got -1ns`},
		{func(f *Function) { f.FunctionInit = -time.Minute }, `function "a": FunctionInit must be non-negative, got -1m0s`},
		{func(f *Function) { f.Exec = -time.Second }, `function "a": Exec must be non-negative, got -1s`},
		// Checks run in declaration order; the first failure is reported.
		{func(f *Function) { f.ID, f.MemoryMB, f.Exec = 0, 0, -1 }, `function "a": ID must be positive, got 0`},
		{func(f *Function) { f.Clean, f.Create = -1, -2 }, `function "a": Create must be non-negative, got -2ns`},
	} {
		f := testFn(1, "a", "alpine")
		c.mutate(f)
		if err := f.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate() = %v, want %q", err, c.want)
		}
	}
	w := Workload{Name: "w", Functions: []*Function{testFn(1, "a", "alpine"), testFn(0, "b", "alpine")}}
	if err, want := w.Validate(), `workload "w": function "b": ID must be positive, got 0`; err == nil || err.Error() != want {
		t.Errorf("Workload.Validate() = %v, want %q", err, want)
	}
}

func TestColdStartTime(t *testing.T) {
	f := testFn(1, "a", "alpine")
	// create 200 + pull 600 + install 60 + runtime 100 + fn 30 = 990ms
	if got := f.ColdStartTime(); got != 990*time.Millisecond {
		t.Fatalf("ColdStartTime = %v, want 990ms", got)
	}
}

func TestPoissonArrivals(t *testing.T) {
	p := Poisson{Rate: 10, Rng: rand.New(rand.NewSource(1))}
	ts := p.Times(5000)
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
		t.Fatal("Poisson arrivals not sorted")
	}
	mean := ((ts[len(ts)-1] - ts[0]) / time.Duration(len(ts)-1)).Seconds()
	if math.Abs(mean-0.1) > 0.01 {
		t.Fatalf("mean inter-arrival = %vs, want ~0.1s", mean)
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson{Rate: 5, Rng: rand.New(rand.NewSource(7))}.Times(100)
	b := Poisson{Rate: 5, Rng: rand.New(rand.NewSource(7))}.Times(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrivals")
		}
	}
}

func TestPoissonPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	Poisson{Rate: 0, Rng: rand.New(rand.NewSource(1))}.Times(1)
}

func TestUniformArrivals(t *testing.T) {
	u := Uniform{Window: time.Minute}
	ts := u.Times(60)
	if len(ts) != 60 {
		t.Fatalf("got %d arrivals", len(ts))
	}
	if ts[0] != time.Second || ts[59] != time.Minute {
		t.Fatalf("first/last = %v/%v, want 1s/60s", ts[0], ts[59])
	}
	for i := 1; i < len(ts); i++ {
		if ts[i]-ts[i-1] != time.Second {
			t.Fatal("uniform gaps not constant")
		}
	}
}

func TestPeakArrivals(t *testing.T) {
	p := Peak{Period: time.Minute, HighPerP: 80, LowPerP: 20}
	ts := p.Times(300) // 80+20+80+20+80 = 280 in 5 min, rest in 6th
	inMinute := func(m int) int {
		lo, hi := time.Duration(m)*time.Minute, time.Duration(m+1)*time.Minute
		n := 0
		for _, t := range ts {
			if t > lo && t <= hi {
				n++
			}
		}
		return n
	}
	if got := inMinute(0); got != 80 {
		t.Errorf("minute 0 has %d arrivals, want 80", got)
	}
	if got := inMinute(1); got != 20 {
		t.Errorf("minute 1 has %d arrivals, want 20", got)
	}
	if got := inMinute(2); got != 80 {
		t.Errorf("minute 2 has %d arrivals, want 80", got)
	}
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
		t.Fatal("peak arrivals not sorted")
	}
}

func TestPoissonWindowArrivals(t *testing.T) {
	p := PoissonWindow{Window: time.Minute, Rng: rand.New(rand.NewSource(3))}
	ts := p.Times(300)
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
		t.Fatal("arrivals not sorted")
	}
	for _, v := range ts {
		if v < 0 || v > time.Minute {
			t.Fatalf("arrival %v outside window", v)
		}
	}
}

func TestMergeOrdersInvocations(t *testing.T) {
	f1, f2 := testFn(1, "a", "alpine"), testFn(2, "b", "debian")
	w := Merge("test", []Stream{
		{Fn: f1, Times: []time.Duration{3 * time.Second, time.Second}},
		{Fn: f2, Times: []time.Duration{2 * time.Second}},
	}, 0, nil)
	if err := w.Validate(); err != nil {
		t.Fatalf("merged workload invalid: %v", err)
	}
	if len(w.Invocations) != 3 || len(w.Functions) != 2 {
		t.Fatalf("got %d invocations %d functions", len(w.Invocations), len(w.Functions))
	}
	wantFn := []int{1, 2, 1}
	for i, inv := range w.Invocations {
		if inv.Fn.ID != wantFn[i] {
			t.Errorf("invocation %d is fn %d, want %d", i, inv.Fn.ID, wantFn[i])
		}
		if inv.Seq != i {
			t.Errorf("invocation %d has Seq %d", i, inv.Seq)
		}
	}
}

func TestMergeJitterBounded(t *testing.T) {
	f := testFn(1, "a", "alpine")
	w := Merge("j", []Stream{{Fn: f, Times: Uniform{Window: time.Minute}.Times(100)}}, 0.2, rand.New(rand.NewSource(5)))
	for _, inv := range w.Invocations {
		r := float64(inv.Exec) / float64(f.Exec)
		if r < 0.8-1e-9 || r > 1.2+1e-9 {
			t.Fatalf("exec jitter ratio %v outside ±20%%", r)
		}
	}
}

func TestMergeDedupsFunctions(t *testing.T) {
	f := testFn(1, "a", "alpine")
	w := Merge("d", []Stream{
		{Fn: f, Times: []time.Duration{time.Second}},
		{Fn: f, Times: []time.Duration{2 * time.Second}},
	}, 0, nil)
	if len(w.Functions) != 1 {
		t.Fatalf("duplicate function listed %d times", len(w.Functions))
	}
}

func TestWorkloadValidateCatchesDisorder(t *testing.T) {
	f := testFn(1, "a", "alpine")
	w := Workload{Name: "bad", Functions: []*Function{f}, Invocations: []Invocation{
		{Seq: 0, Fn: f, Arrival: 2 * time.Second},
		{Seq: 1, Fn: f, Arrival: time.Second},
	}}
	if w.Validate() == nil {
		t.Fatal("out-of-order invocations accepted")
	}
	w2 := Workload{Name: "nil", Invocations: []Invocation{{Seq: 0, Fn: nil}}}
	if w2.Validate() == nil {
		t.Fatal("nil function accepted")
	}
}

func TestRoundRobinSplit(t *testing.T) {
	got := RoundRobinSplit(10, 3)
	want := []int{4, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split = %v, want %v", got, want)
		}
	}
	if RoundRobinSplit(5, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestPropertyRoundRobinSplitSums(t *testing.T) {
	f := func(total uint16, k uint8) bool {
		n, kk := int(total%1000), int(k%20)+1
		parts := RoundRobinSplit(n, kk)
		sum := 0
		for _, p := range parts {
			sum += p
			if p < 0 {
				return false
			}
		}
		if sum != n {
			return false
		}
		// Even split: max-min <= 1.
		mn, mx := parts[0], parts[0]
		for _, p := range parts {
			if p < mn {
				mn = p
			}
			if p > mx {
				mx = p
			}
		}
		return mx-mn <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateEMA(t *testing.T) {
	var r RateEMA
	r.Alpha = 0.5
	r.Observe(0)
	if r.Rate() != 0 {
		t.Fatal("rate after one observation should be 0")
	}
	r.Observe(time.Second) // gap 1s -> inst 1/s
	if math.Abs(r.Rate()-1) > 1e-9 {
		t.Fatalf("rate = %v, want 1", r.Rate())
	}
	r.Observe(1500 * time.Millisecond) // gap 0.5s -> inst 2/s, ema 1.5
	if math.Abs(r.Rate()-1.5) > 1e-9 {
		t.Fatalf("rate = %v, want 1.5", r.Rate())
	}
	r.Observe(1500 * time.Millisecond) // zero gap ignored
	if math.Abs(r.Rate()-1.5) > 1e-9 {
		t.Fatalf("zero-gap observation changed rate to %v", r.Rate())
	}
}

func TestWorkloadMetrics(t *testing.T) {
	f1, f2 := testFn(1, "a", "alpine"), testFn(2, "b", "alpine")
	w := Merge("m", []Stream{
		{Fn: f1, Times: []time.Duration{time.Second}},
		{Fn: f2, Times: []time.Duration{2 * time.Second}},
	}, 0, nil)
	// Both images share alpine + python => Jaccard = 1 (identical sets).
	if got := w.AvgSimilarity(); got != 1 {
		t.Fatalf("AvgSimilarity = %v, want 1", got)
	}
	if got := w.SizeVariance(); got <= 0 {
		t.Fatalf("SizeVariance = %v, want > 0", got)
	}
	if got := w.Duration(); got != 2*time.Second {
		t.Fatalf("Duration = %v, want 2s", got)
	}
}
