package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
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
		s.Params[p.Name] = snapParam{Rows: p.W.Rows, Cols: p.W.Cols, Data: append([]float64(nil), p.W.Data...)}
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
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("nn: decode snapshot: %w", err)
	}
	for _, p := range params {
		sp, ok := s.Params[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot missing parameter %q", p.Name)
		}
		if sp.Rows != p.W.Rows || sp.Cols != p.W.Cols || len(sp.Data) != len(p.W.Data) {
			return fmt.Errorf("nn: parameter %q shape %dx%d, snapshot has %dx%d (%d values)",
				p.Name, p.W.Rows, p.W.Cols, sp.Rows, sp.Cols, len(sp.Data))
		}
		for i, v := range sp.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: parameter %q element %d is %v in the snapshot", p.Name, i, v)
			}
		}
	}
	for _, p := range params {
		copy(p.W.Data, s.Params[p.Name].Data)
		p.MarkUpdated()
	}
	return nil
}

// SaveFile writes parameters to path.
func SaveFile(path string, params []*Param) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	//mlcr:allow errcheck double-close guard; the explicit Close below surfaces the write error
	defer f.Close()
	if err := Save(f, params); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads parameters from path.
func LoadFile(path string, params []*Param) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	defer f.Close() //mlcr:allow errcheck read-only close; nothing to flush
	return Load(f, params)
}

// CopyParams copies parameter values from src to dst by position. It is
// used to sync the DQN target network. Shapes must match.
func CopyParams(dst, src []*Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: copy %d params from %d", len(dst), len(src)))
	}
	for i := range dst {
		if dst[i].W.Rows != src[i].W.Rows || dst[i].W.Cols != src[i].W.Cols {
			panic(fmt.Sprintf("nn: param %d shape mismatch", i))
		}
		copy(dst[i].W.Data, src[i].W.Data)
		dst[i].MarkUpdated()
	}
}
