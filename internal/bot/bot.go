// Package bot defines Bag-of-Tasks workloads. Following the paper (§4.1.2,
// after Iosup et al. and Minh & Wolters), a BoT is an ordered set of
// independent tasks sharing an owner and a group identifier, with bounded
// inter-arrival gaps. Three classes are used throughout the evaluation
// (Table 3):
//
//	SMALL   1000 homogeneous tasks × 3 600 000 instructions, all at t=0
//	BIG     10000 homogeneous tasks × 60 000 instructions, all at t=0
//	RANDOM  ~norm(1000,200) tasks × norm(60000,10000) instructions,
//	        iid Weibull(λ=91.98, k=0.57) arrival times
package bot

import (
	"fmt"
	"math"
	"sort"

	"spequlos/internal/sim"
	"spequlos/internal/stats"
)

// Task is one independent unit of work.
type Task struct {
	ID      int
	NOps    float64 // number of instructions
	Arrival float64 // submission time offset from BoT submission, seconds
}

// BoT is a bag of tasks tagged with a group identifier (batchid in BOINC,
// xwgroup in XWHEP).
type BoT struct {
	ID    string
	Class string
	Tasks []Task
	// WallClockTime is the per-task wall-clock estimate used to express the
	// BoT's workload in CPU time (Table 3 commentary: 11000 s for SMALL,
	// 180 s for BIG, 2200 s for RANDOM).
	WallClockTime float64
}

// Size returns the number of tasks.
func (b *BoT) Size() int { return len(b.Tasks) }

// WorkloadCPUHours is the BoT workload expressed in CPU·hours: size times
// the per-task wall-clock estimate (§4.1.3). This is the quantity 10% of
// which the evaluation provisions as Cloud credits.
func (b *BoT) WorkloadCPUHours() float64 {
	return float64(b.Size()) * b.WallClockTime / 3600
}

// Validate checks the structural invariants of the BoT definition:
// non-empty, positive instruction counts, non-decreasing arrivals starting
// at or after zero.
func (b *BoT) Validate() error {
	if len(b.Tasks) == 0 {
		return fmt.Errorf("bot %s: empty", b.ID)
	}
	prev := 0.0
	for i, t := range b.Tasks {
		if t.NOps <= 0 {
			return fmt.Errorf("bot %s: task %d has non-positive nops", b.ID, i)
		}
		if t.Arrival < prev {
			return fmt.Errorf("bot %s: arrivals not ordered at task %d", b.ID, i)
		}
		prev = t.Arrival
	}
	return nil
}

// Epsilon is the typical inter-arrival bound of the BoT definition (§4.1.2).
const Epsilon = 60.0

// Class describes a BoT workload generator (Table 3).
type Class struct {
	Name          string
	Size          stats.Dist // number of tasks
	NOps          stats.Dist // instructions per task
	Arrival       stats.Dist // task arrival times (iid, sorted); Constant(0) = simultaneous
	WallClockTime float64    // per-task wall-clock estimate, seconds
	Heterogeneous bool
}

// The three classes of Table 3.
var (
	Small = Class{
		Name: "SMALL",
		Size: stats.Constant{Value: 1000},
		NOps: stats.Constant{Value: 3600000},
		// All tasks arrive together.
		Arrival:       stats.Constant{Value: 0},
		WallClockTime: 11000,
	}
	Big = Class{
		Name:          "BIG",
		Size:          stats.Constant{Value: 10000},
		NOps:          stats.Constant{Value: 60000},
		Arrival:       stats.Constant{Value: 0},
		WallClockTime: 180,
	}
	Random = Class{
		Name: "RANDOM",
		Size: stats.TruncatedNormal{Mu: 1000, Sigma: 200, Lo: 10, Hi: 5000},
		NOps: stats.TruncatedNormal{Mu: 60000, Sigma: 10000, Lo: 1000, Hi: 200000},
		// Arrival times are drawn iid from the Weibull repartition
		// function of Table 3 (after Minh & Wolters) and sorted: the BoT
		// builds up over a few minutes, with gaps far below ε.
		Arrival:       stats.Weibull{Lambda: 91.98, K: 0.57},
		WallClockTime: 2200,
		Heterogeneous: true,
	}
)

// Classes returns the three evaluation classes.
func Classes() []Class { return []Class{Small, Big, Random} }

// ClassByName looks up a class by its Table 3 name.
func ClassByName(name string) (Class, bool) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// Generate builds a BoT of this class. The id tags every task's group
// (SpeQuloS uses it to recognize QoS-enabled BoTs across middleware).
func (c Class) Generate(id string, seed uint64) *BoT {
	r := sim.NewRNG(seed).Fork("bot:" + c.Name)
	n := int(math.Round(c.Size.Sample(r.Rand)))
	if n < 1 {
		n = 1
	}
	b := &BoT{ID: id, Class: c.Name, WallClockTime: c.WallClockTime, Tasks: make([]Task, n)}
	for i := range b.Tasks {
		at := c.Arrival.Sample(r.Rand)
		if at < 0 {
			at = 0
		}
		b.Tasks[i] = Task{ID: i, NOps: c.NOps.Sample(r.Rand), Arrival: at}
	}
	sort.SliceStable(b.Tasks, func(i, j int) bool { return b.Tasks[i].Arrival < b.Tasks[j].Arrival })
	for i := range b.Tasks {
		b.Tasks[i].ID = i
	}
	return b
}

// ScaledClass returns a copy of the class with the task count scaled by f
// (minimum 1 task). Quick experiment profiles use scaled BoTs so that
// benchmarks finish promptly; the full harness uses paper sizes.
func (c Class) Scaled(f float64) Class {
	out := c
	switch s := c.Size.(type) {
	case stats.Constant:
		out.Size = stats.Constant{Value: math.Max(1, math.Round(s.Value*f))}
	case stats.TruncatedNormal:
		out.Size = stats.TruncatedNormal{Mu: math.Max(1, s.Mu*f), Sigma: s.Sigma * f,
			Lo: math.Max(1, s.Lo*f), Hi: math.Max(2, s.Hi*f)}
	}
	return out
}
