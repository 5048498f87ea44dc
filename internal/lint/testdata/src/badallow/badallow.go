// Package badallow carries malformed suppression directives plus one
// violation whose directive names the wrong analyzer — none of them
// may suppress anything, and each is itself a finding: the malformed
// ones as such, the wrong-analyzer one as a directive that suppresses
// nothing.
package badallow

import "time"

// Bad shows every way a directive can rot.
func Bad() time.Duration {
	//mlcr:allow
	start := time.Now() // want `time\.Now reads the wall clock`

	//mlcr:allow walltime
	mid := time.Now() // want `time\.Now reads the wall clock`
	_ = mid

	//mlcr:allow nosuchanalyzer because typos happen
	later := time.Now() // want `time\.Now reads the wall clock`
	_ = later

	//mlcr:allow detrand wrong analyzer for this violation
	end := time.Now() // want `time\.Now reads the wall clock`
	_ = end

	return end.Sub(start)
}
