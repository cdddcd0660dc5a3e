//go:build unix

package campaign

import "syscall"

// ProcessCPUSeconds returns the CPU time (user + system) consumed by the
// process so far. Cost measured in CPU time is robust to wall-clock noise
// from co-scheduled work; it is what bench/ reports as cpu_s.
func ProcessCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return timevalSeconds(ru.Utime) + timevalSeconds(ru.Stime)
}

func timevalSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
