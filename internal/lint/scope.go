package lint

import "strings"

// deterministicPkgs names every internal package that is part of the
// deterministic simulation engine: code whose outputs must be
// bit-identical run to run and at any -parallel value (the property
// runner.Fingerprint and the experiments determinism tests verify
// after the fact, and the walltime/detrand/maprange analyzers enforce
// at the source level). api is in scope since the injected-Clock
// refactor: every time observation flows through perf.Clock, and the
// single production wall-clock origin (api.WallClock) carries audited
// //mlcr:allow directives. Subpackages inherit their top directory's
// scope, so obs/perf is deterministic: the profiler runs on an injected
// Clock and never reads wall time itself.
var deterministicPkgs = map[string]bool{
	"api":         true,
	"cluster":     true,
	"container":   true,
	"core":        true,
	"dockerfile":  true,
	"drl":         true,
	"evict":       true,
	"experiments": true,
	"fstartbench": true,
	"hub":         true,
	"image":       true,
	"metrics":     true,
	"mlcr":        true,
	"nn":          true,
	"obs":         true,
	"platform":    true,
	"policy":      true,
	"pool":        true,
	"registry":    true,
	"report":      true,
	"runner":      true,
	"sim":         true,
	"trace":       true,
	"workload":    true,
}

const internalPrefix = "mlcr/internal/"

// IsDeterministic reports whether the import path belongs to the
// deterministic engine. cmd/, examples/ and the repo root are CLI
// territory (wall-clock progress timing is fine there).
func IsDeterministic(path string) bool {
	if !strings.HasPrefix(path, internalPrefix) {
		return false
	}
	top, _, _ := strings.Cut(path[len(internalPrefix):], "/")
	return deterministicPkgs[top]
}

// isInternal reports whether the import path is under mlcr/internal/
// — the errcheck-lite scope.
func isInternal(path string) bool {
	return strings.HasPrefix(path, internalPrefix)
}
