//go:build unix

package harness

import (
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time so far, and whether the
// platform reports it.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
