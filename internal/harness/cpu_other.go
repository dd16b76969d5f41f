//go:build !unix

package harness

import "time"

// processCPU reports no CPU time where getrusage is unavailable; callers
// then treat every timed sample as uncontended.
func processCPU() (time.Duration, bool) { return 0, false }
