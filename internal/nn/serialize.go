package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// snapshot is the gob wire format: parameter values keyed by name.
type snapshot struct {
	Params map[string]snapParam
}

type snapParam struct {
	Rows, Cols int
	Data       []float64
}

// Save writes the parameter values to w, keyed by parameter name.
func Save(w io.Writer, params []*Param) error {
	s := snapshot{Params: make(map[string]snapParam, len(params))}
	for _, p := range params {
		if _, dup := s.Params[p.Name]; dup {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		s.Params[p.Name] = snapParam{Rows: p.w.Rows, Cols: p.w.Cols, Data: append([]float64(nil), p.w.Data...)}
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads parameter values from r into params, matching by name and
// verifying shapes. Every parameter must be present and every value
// finite: one NaN or ±Inf weight makes every Q-value compare false, and a
// scheduler that cannot pick an action must be refused here, not found
// out on the request path. The snapshot is validated whole before any
// weight is copied, so a failed Load leaves params untouched.
func Load(r io.Reader, params []*Param) error {
	// A non-nil map makes gob decode into it instead of allocating one
	// sized by the entry count the input claims.
	s := snapshot{Params: make(map[string]snapParam, len(params))}
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("nn: decode snapshot: %w", err)
	}
	for _, p := range params {
		sp, ok := s.Params[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot missing parameter %q", p.Name)
		}
		if sp.Rows != p.w.Rows || sp.Cols != p.w.Cols || len(sp.Data) != len(p.w.Data) {
			return fmt.Errorf("nn: parameter %q shape %dx%d, snapshot has %dx%d (%d values)",
				p.Name, p.w.Rows, p.w.Cols, sp.Rows, sp.Cols, len(sp.Data))
		}
		for i, v := range sp.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: parameter %q element %d is %v in the snapshot", p.Name, i, v)
			}
		}
	}
	for _, p := range params {
		copy(p.w.Data, s.Params[p.Name].Data)
		p.markUpdated()
	}
	return nil
}

// CopyParams copies parameter values from src to dst by position. It is
// used to sync the DQN target network. Shapes must match.
func CopyParams(dst, src []*Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: copy %d params from %d", len(dst), len(src)))
	}
	for i := range dst {
		if dst[i].w.Rows != src[i].w.Rows || dst[i].w.Cols != src[i].w.Cols {
			panic(fmt.Sprintf("nn: param %d shape mismatch", i))
		}
		copy(dst[i].w.Data, src[i].w.Data)
		dst[i].markUpdated()
	}
}
