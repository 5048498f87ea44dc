// Package workload defines serverless function specifications, invocation
// streams and the arrival processes used to compose benchmark workloads
// (Section V of the paper): Poisson, uniform, and alternating peak/valley
// arrivals, plus an Azure-like heavy-tailed invocation mix.
package workload

import (
	"fmt"
	"time"

	"mlcr/internal/image"
)

// Function is the static specification of a serverless function: the image
// it needs and its calibrated timing profile. All durations are means; the
// generators may apply bounded jitter at invocation time.
type Function struct {
	// ID is a small positive integer identifying the function type
	// (1..13 for FStartBench).
	ID int
	// Name is a human-readable label.
	Name string
	// Description classifies the application (Table II's last column).
	Description string
	// Image lists the function's packages across the three levels.
	Image image.Image

	// Create is the time to create and launch a fresh sandbox
	// (cold start only).
	Create time.Duration
	// Clean is the container-cleaner overhead (volume unmount + mount)
	// paid whenever a warm container is reused across functions.
	Clean time.Duration
	// RuntimeInit is the language runtime initialization time, paid on
	// any start where the runtime is not already initialized (i.e. all
	// starts except a full L3 match). Compiled runtimes (JVM, .NET) have
	// large values; interpreted ones small (Section II-A).
	RuntimeInit time.Duration
	// FunctionInit is the application initialization time, always paid.
	FunctionInit time.Duration
	// Exec is the mean function execution time.
	Exec time.Duration
	// MemoryMB is the memory footprint of a container running this
	// function, including its image. It is the unit of warm-pool
	// accounting.
	MemoryMB float64
}

// Validate reports configuration errors in a function spec. The
// pointer receiver keeps a catalogue-wide sweep from copying every
// spec.
func (f *Function) Validate() error {
	if f.ID <= 0 {
		return fmt.Errorf("function %q: ID must be positive, got %d", f.Name, f.ID)
	}
	if len(f.Image.AtLevel(image.OS)) == 0 {
		return fmt.Errorf("function %q: image has no OS-level package", f.Name)
	}
	if f.MemoryMB <= 0 {
		return fmt.Errorf("function %q: MemoryMB must be positive, got %v", f.Name, f.MemoryMB)
	}
	switch {
	case f.Create < 0:
		return f.negative("Create", f.Create)
	case f.Clean < 0:
		return f.negative("Clean", f.Clean)
	case f.RuntimeInit < 0:
		return f.negative("RuntimeInit", f.RuntimeInit)
	case f.FunctionInit < 0:
		return f.negative("FunctionInit", f.FunctionInit)
	case f.Exec < 0:
		return f.negative("Exec", f.Exec)
	}
	return nil
}

func (f *Function) negative(field string, d time.Duration) error {
	return fmt.Errorf("function %q: %s must be non-negative, got %v", f.Name, field, d)
}

// ColdStartTime returns the full cold-start latency of the function:
// sandbox creation, pulling and installing every package level, runtime
// and function initialization. It is the worst case against which warm
// starts are compared.
func (f *Function) ColdStartTime() time.Duration {
	d := f.Create + f.RuntimeInit + f.FunctionInit
	for _, l := range image.Levels {
		d += f.Image.PullTime(l) + f.Image.InstallTime(l)
	}
	return d
}

// Invocation is one request for a function at a point in virtual time.
type Invocation struct {
	// Seq is the position of the invocation in its workload (0-based).
	Seq int
	// Fn is the invoked function's specification.
	Fn *Function
	// Arrival is the virtual time at which the request reaches the
	// platform.
	Arrival time.Duration
	// Exec is the realized execution time of this particular invocation
	// (the function's mean with jitter applied).
	Exec time.Duration
}

// Workload is an ordered stream of invocations plus the distinct function
// types it draws from.
type Workload struct {
	Name        string
	Functions   []*Function
	Invocations []Invocation
}

// Duration returns the arrival time of the last invocation.
func (w Workload) Duration() time.Duration {
	if len(w.Invocations) == 0 {
		return 0
	}
	return w.Invocations[len(w.Invocations)-1].Arrival
}

// Images returns the images of the workload's function types, used for
// similarity and variance metrics.
func (w Workload) Images() []image.Image {
	out := make([]image.Image, len(w.Functions))
	for i, f := range w.Functions {
		out[i] = f.Image
	}
	return out
}

// AvgSimilarity is the mean pairwise Jaccard similarity between the
// workload's function images (Metric 1).
func (w Workload) AvgSimilarity() float64 {
	return image.AveragePairwiseJaccard(w.Images())
}

// SizeVariance is the variance of package sizes across the workload's
// function images (Metric 2).
func (w Workload) SizeVariance() float64 {
	return image.SizeVariance(w.Images())
}

// Validate checks the workload for ordering and spec errors.
func (w Workload) Validate() error {
	for _, f := range w.Functions {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	for i := 1; i < len(w.Invocations); i++ {
		if w.Invocations[i].Arrival < w.Invocations[i-1].Arrival {
			return fmt.Errorf("workload %q: invocation %d arrives at %v before invocation %d at %v",
				w.Name, i, w.Invocations[i].Arrival, i-1, w.Invocations[i-1].Arrival)
		}
	}
	for i, inv := range w.Invocations {
		if inv.Fn == nil {
			return fmt.Errorf("workload %q: invocation %d has nil function", w.Name, i)
		}
	}
	return nil
}
