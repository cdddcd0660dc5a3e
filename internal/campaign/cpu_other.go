//go:build !unix

package campaign

// ProcessCPUSeconds is unavailable on this platform: it reports 0.
func ProcessCPUSeconds() float64 { return 0 }
