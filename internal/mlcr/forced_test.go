package mlcr

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/drl"
	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// TestForcedColdSkipsForward: when no candidate survives the mask the
// only legal action is the cold start, so Schedule must not spend a
// forward pass on it — neither on its own agent nor on a shared
// QBatcher — while a decision with a real candidate still makes exactly
// one request.
func TestForcedColdSkipsForward(t *testing.T) {
	s := New(smallCfg(21))
	b := drl.NewQBatcher(s.Agent().Online(), 0)
	s.SetBatcher(b)
	f := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	p := pool.New(1024, evict.NewLRU())
	inv := &workload.Invocation{Fn: f, Arrival: time.Second, Exec: f.Exec}

	if got := s.Schedule(platform.Env{Now: time.Second, Pool: p}, inv); got != platform.ColdStart {
		t.Fatalf("empty pool: Schedule = %d, want ColdStart", got)
	}
	if n := b.Requests(); n != 0 {
		t.Fatalf("forced cold start made %d batcher requests, want 0", n)
	}

	c, startup := container.NewCold(7, inv, time.Second)
	c.Complete(2 * time.Second)
	if !p.Add(c, startup.Total(), 2*time.Second) {
		t.Fatal("pool rejected the finished container")
	}
	inv2 := &workload.Invocation{Seq: 1, Fn: f, Arrival: 3 * time.Second, Exec: f.Exec}
	if got := s.Schedule(platform.Env{Now: 3 * time.Second, PrevArrival: time.Second, Pool: p}, inv2); got != c.ID {
		t.Fatalf("one L3 candidate: Schedule = %d, want container %d", got, c.ID)
	}
	if n := b.Requests(); n != 1 {
		t.Fatalf("decision with a candidate made %d batcher requests, want exactly 1", n)
	}
}

// weightsDigest hashes every online-network parameter, in Params order,
// name and IEEE bits. (nn.Save goes through a gob map, whose byte order
// is not deterministic, so the digest is taken over the weights
// themselves.)
func weightsDigest(s *Scheduler) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range s.Agent().Online().Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Weights() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// trainedOnOverall trains a fresh scheduler for 3 episodes on the
// 400-invocation overall mix with a pool tight enough that a good share
// of decisions have no candidate at all.
func trainedOnOverall(seed int64) *Scheduler {
	w := fstartbench.BuildOverall(5, fstartbench.OverallOptions{})
	s := New(smallCfg(seed))
	s.Train(TrainOptions{Episodes: 3, PoolCapacityMB: 1024,
		Workload: func(int) workload.Workload { return w }})
	return s
}

// TestForcedColdKeepsTrainingStream: skipping the forward pass of a
// forced decision must not move an RNG draw, a transition or an update.
// The literal was recorded at the parent of the commit that added the
// skip (0ef36ce), where every such decision still ran the network.
func TestForcedColdKeepsTrainingStream(t *testing.T) {
	const parentDigest = "3843c706fb9b476990f183ad2476c88cb40b52d8b101e3b841ef07d9d15e5a13"
	a, b := weightsDigest(trainedOnOverall(31)), weightsDigest(trainedOnOverall(31))
	if a != b {
		t.Fatalf("identically seeded training runs diverged: %s vs %s", a, b)
	}
	if a != parentDigest {
		t.Fatalf("trained weights digest %s, parent commit had %s", a, parentDigest)
	}
}

// qRecorder hashes the IEEE bits of every Q-vector its scheduler
// computes: the scheduler serves its forward passes through a QBatcher,
// so a request counted by the batcher is one Q-vector left in s.bq.
type qRecorder struct {
	*Scheduler
	b       *drl.QBatcher
	h       hash.Hash
	vectors int
}

func (r *qRecorder) Schedule(env platform.Env, inv *workload.Invocation) int {
	before := r.b.Requests()
	id := r.Scheduler.Schedule(env, inv)
	if r.b.Requests() != before {
		var buf [8]byte
		for _, v := range r.bq.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			r.h.Write(buf[:])
		}
		r.vectors++
	}
	return id
}

// TestQValuesPinned: a scheduler trained as in
// TestForcedColdKeepsTrainingStream replays a 2,000-invocation
// overall-mix trace at the Tight pool (0.2 × Loose). Every Q-vector it
// computes, bit for bit, and the run's fingerprint are pinned: a change
// to the forward pass that moves one rounding anywhere shows here. The
// literals were recorded at 03ccd9b, before the attention and LayerNorm
// forwards were rewritten to read rows in place.
func TestQValuesPinned(t *testing.T) {
	const (
		parentQDigest      = "091702ecb8a5139406c84f4025315edc9f727cfb1cc7f35ab5a2c6754fba92ab"
		parentFingerprint  = "e1a2780e93e3277d60bba7eca3705a626371c8ca11d9b1922079e6df1f146634"
		parentVectorsCount = 1906
	)
	s := trainedOnOverall(31)
	b := drl.NewQBatcher(s.Agent().Online(), 0)
	s.SetBatcher(b)
	rec := &qRecorder{Scheduler: s, b: b, h: sha256.New()}

	w := fstartbench.BuildOverall(6, fstartbench.OverallOptions{Count: 2000})
	lru := policy.NewLRU()
	loose := platform.New(platform.Config{Evictor: lru.Evictor()}, lru).Run(w).PeakAliveMB
	res := platform.New(platform.Config{PoolCapacityMB: 0.2 * loose, Evictor: s.Evictor()}, rec).Run(w)

	q := fmt.Sprintf("%x", rec.h.Sum(nil))
	fp := fmt.Sprintf("%x", sha256.Sum256([]byte(runner.Fingerprint(res))))
	if rec.vectors != parentVectorsCount || q != parentQDigest || fp != parentFingerprint {
		t.Fatalf("%d Q-vectors, digest %s, fingerprint %s; parent commit had %d, %s, %s",
			rec.vectors, q, fp, parentVectorsCount, parentQDigest, parentFingerprint)
	}
}
