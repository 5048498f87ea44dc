package mlcr

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"
	"time"
)

// configOnly is a model file cut after its Config: enough for Load to
// decide whether it can build the scheduler at all.
func configOnly(t testing.TB, cfg Config) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRefusesMalformedConfig: the Config comes from outside the
// program, so Load checks it before building anything. Every case is
// refused, and a refusal allocates under a third (the gob decoder
// alone takes about 15 KB) of what building even this small network's
// weights does.
func TestLoadRefusesMalformedConfig(t *testing.T) {
	good := New(smallCfg(1)).Config()
	cases := map[string]func(*Config){
		"dim not divisible by heads": func(c *Config) { c.Heads = 5 },
		"zero slots":                 func(c *Config) { c.Slots = 0 },
		"negative hidden":            func(c *Config) { c.Hidden = -1 },
		"zero train interval":        func(c *Config) { c.TrainEvery = 0 },
		"oversized hidden":           func(c *Config) { c.Hidden = 1 << 40 },
		"oversized network":          func(c *Config) { c.Dim, c.Hidden = 2048, 2048 },
		"NaN NormMB":                 func(c *Config) { c.NormMB = math.NaN() },
		"infinite NormMB":            func(c *Config) { c.NormMB = math.Inf(1) },
		"negative NormMB":            func(c *Config) { c.NormMB = -1 },
		"negative NormTime":          func(c *Config) { c.NormTime = -time.Second },
		"NaN margin":                 func(c *Config) { c.DeviationMargin = math.NaN() },
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	New(good)
	runtime.ReadMemStats(&ms)
	buildBytes := ms.TotalAlloc - before
	for name, mutate := range cases {
		cfg := good
		mutate(&cfg)
		data := configOnly(t, cfg)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&ms)
		if err == nil || s != nil {
			t.Errorf("%s: Load accepted %+v", name, cfg)
		}
		if n := ms.TotalAlloc - before; n > buildBytes/3 {
			t.Errorf("%s: refused Load allocated %d bytes; building the network takes %d", name, n, buildBytes)
		}
	}
}

// FuzzMLCRLoad: on any input Load never panics, and either refuses it
// with no scheduler or returns one whose Config it could build. The
// seeds are a Save of a small model, its Config alone, a truncation and
// the malformed configs of TestLoadRefusesMalformedConfig's kind.
func FuzzMLCRLoad(f *testing.F) {
	s := New(smallCfg(2))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(configOnly(f, s.Config()))
	bad := s.Config()
	bad.Heads = 5
	f.Add(configOnly(f, bad))
	bad = s.Config()
	bad.NormMB = math.NaN()
	f.Add(configOnly(f, bad))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if (err == nil) != (s != nil) {
			t.Fatalf("Load returned scheduler %v with error %v", s != nil, err)
		}
		if err == nil {
			if cerr := s.Config().check(); cerr != nil {
				t.Fatalf("accepted a config it must refuse: %v", cerr)
			}
		}
	})
}
