package trace

import "spequlos/internal/stats"

// Published BE-DCI profiles from Table 2 of the paper. Durations are the
// availability / unavailability quartiles in seconds; powers in nops/s.
//
//	trace    len   mean    std    min    max    av.quartiles      unav.quartiles    power
//	seti     120   24391   6793   15868  31092  61,531,5407       174,501,3078      1000±250
//	nd       413   180     4.129  77     501    952,3840,26562    640,960,1920      1000±250
//	g5klyo   31    90.57   105.4  6      226    21,51,63          191,236,480       3000±0
//	g5kgre   31    474.7   178.7  184    591    5,182,11268       23,547,6891       3000±0
//
// (spot10/spot100 are produced by the market simulator in internal/spot.)
var (
	// SETI is the SETI@home volunteer-computing trace (BOINC, Failure
	// Trace Archive): a huge, highly volatile desktop grid.
	SETI = Profile{
		Name:       "seti",
		LengthDays: 120,
		MeanNodes:  24391, StdNodes: 6793, MinNodes: 15868, MaxNodes: 31092,
		Avail:   stats.MustQuartileDist(61, 531, 5407, 5, 8),
		Unavail: stats.MustQuartileDist(174, 501, 3078, 5, 8),
		Power:   stats.TruncatedNormal{Mu: 1000, Sigma: 250, Lo: 100, Hi: 4000},
	}

	// NotreDame is the University of Notre Dame Condor desktop grid trace:
	// small pool, long availability runs, nightly churn.
	NotreDame = Profile{
		Name:       "nd",
		LengthDays: 413.87,
		MeanNodes:  180, StdNodes: 4.129, MinNodes: 77, MaxNodes: 501,
		Avail:   stats.MustQuartileDist(952, 3840, 26562, 30, 8),
		Unavail: stats.MustQuartileDist(640, 960, 1920, 30, 8),
		Power:   stats.TruncatedNormal{Mu: 1000, Sigma: 250, Lo: 100, Hi: 4000},
	}

	// G5KLyon is the Grid'5000 Lyon cluster used through the OAR
	// best-effort queue (December 2010): homogeneous fast nodes whose
	// typical availability slots are tens of seconds (regular jobs preempt
	// constantly) but whose top quartile stretches into night-long idle
	// runs — without those, no 20-CPU-minute task could ever finish there,
	// contradicting Fig 6's g5klyo completion times.
	G5KLyon = Profile{
		Name:       "g5klyo",
		LengthDays: 31,
		MeanNodes:  90.573, StdNodes: 105.4, MinNodes: 6, MaxNodes: 226,
		Avail:   stats.MustQuartileDist(21, 51, 63, 3, 600),
		Unavail: stats.MustQuartileDist(191, 236, 480, 3, 100),
		Power:   stats.Constant{Value: 3000},
	}

	// G5KGrenoble is the Grid'5000 Grenoble cluster in best-effort mode:
	// larger pool, bimodal-ish availability (idle nights vs busy days).
	G5KGrenoble = Profile{
		Name:       "g5kgre",
		LengthDays: 31,
		MeanNodes:  474.69, StdNodes: 178.7, MinNodes: 184, MaxNodes: 591,
		Avail:   stats.MustQuartileDist(5, 182, 11268, 2, 8),
		Unavail: stats.MustQuartileDist(23, 547, 6891, 2, 8),
		Power:   stats.Constant{Value: 3000},
	}
)

// RenewalProfiles returns the four renewal-process profiles (desktop grids
// and best-effort grids). Spot traces come from internal/spot.
func RenewalProfiles() []Profile {
	return []Profile{SETI, NotreDame, G5KLyon, G5KGrenoble}
}

// ProfileByName looks up a renewal profile by its Table 2 name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range RenewalProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Class labels BE-DCI types, matching the grouping of Table 1.
type Class string

// The three BE-DCI classes of Table 1.
const (
	ClassDesktopGrid    Class = "Desktop Grids"
	ClassBestEffortGrid Class = "Best Effort Grids"
	ClassSpotInstances  Class = "Spot Instances"
)

// ClassOf maps a trace name to its BE-DCI class.
func ClassOf(name string) Class {
	switch name {
	case "seti", "nd":
		return ClassDesktopGrid
	case "g5klyo", "g5kgre":
		return ClassBestEffortGrid
	case "spot10", "spot100":
		return ClassSpotInstances
	}
	return Class("Unknown")
}
