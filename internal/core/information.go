// Package core implements SpeQuloS itself (§3 of the paper): the
// Information module that monitors BoT progress, the Credit System that
// accounts for cloud usage, the Oracle that predicts completion times and
// decides when and how many cloud workers to start, and the Scheduler that
// manages cloud workers over a BoT's lifetime (Algorithms 1 and 2).
package core

import (
	"fmt"
	"sort"
	"sync"
)

// Sample is one monitoring observation of a BoT execution (§3.2: the
// Information module stores "the BoT completion history as a time series of
// the number of completed tasks, the number of tasks assigned to workers
// and the number of tasks waiting in the scheduler queue").
type Sample struct {
	T         float64 `json:"t"` // seconds since BoT submission
	Completed int     `json:"completed"`
	Assigned  int     `json:"assigned"` // tasks ever assigned (monotone)
	Queued    int     `json:"queued"`
	Running   int     `json:"running"`
	// Workers is the infrastructure state observed with the sample: the
	// number of workers attached to the DG server. The tail-anticipation
	// extension (§7 future work) correlates execution with it.
	Workers int `json:"workers"`
}

// milestones is the per-percent resolution of the tc(x)/ta(x) caches.
const milestones = 100

// BatchInfo is the monitored history of one BoT execution, kept as the
// series the Oracle reads rather than as its samples: the latest sample, the
// number taken, the largest worker count, the completion instant and, per
// percent, tc(x) (the time at which x% of the BoT was completed) and ta(x)
// (the time at which x% was assigned), the two series every Oracle strategy
// is built from. Its size does not grow with the samples added.
type BatchInfo struct {
	BatchID     string
	EnvKey      string // environment (middleware/BE-DCI/BoT class) for α calibration
	Size        int
	SubmittedAt float64
	CompletedAt float64 // -1 while running
	// PeakWorkers is the largest worker count observed so far.
	PeakWorkers int

	// last is the latest sample and samples the number added.
	last    Sample
	samples int
	// tcAt[i] is the elapsed time at which completion first reached i
	// percent; -1 if not yet. taAt is the same for assignment. tcHi and taHi
	// are their high-water marks: every index up to one is filled.
	tcAt       [milestones + 1]float64
	taAt       [milestones + 1]float64
	tcHi, taHi int
	// firstHalfMaxVar is max var(x) over x ≤ 50%, fixed once both series have
	// passed 50% (no milestone it spans can move after that); -1 until then.
	firstHalfMaxVar float64
}

// NewBatchInfo starts tracking a batch of the given size.
func NewBatchInfo(batchID, envKey string, size int, submittedAt float64) *BatchInfo {
	bi := &BatchInfo{BatchID: batchID, EnvKey: envKey, Size: size, SubmittedAt: submittedAt, CompletedAt: -1,
		firstHalfMaxVar: -1}
	for i := range bi.tcAt {
		bi.tcAt[i] = -1
		bi.taAt[i] = -1
	}
	bi.tcAt[0] = 0
	bi.taAt[0] = 0
	return bi
}

// AddSample records an observation taken at absolute time now.
func (bi *BatchInfo) AddSample(now float64, completed, assigned, queued, running int) {
	bi.add(Sample{T: now - bi.SubmittedAt, Completed: completed, Assigned: assigned, Queued: queued, Running: running})
}

// add records an observation taken s.T seconds after submission.
func (bi *BatchInfo) add(s Sample) {
	if s.Workers > bi.PeakWorkers {
		bi.PeakWorkers = s.Workers
	}
	bi.last = s
	bi.samples++
	if bi.Size > 0 {
		fill := func(cache *[milestones + 1]float64, hi *int, count int) {
			upto := bi.percent(count)
			for i := *hi + 1; i <= upto; i++ {
				if cache[i] < 0 {
					cache[i] = s.T
				}
			}
			// A negative time leaves what it wrote unfilled for the next sample.
			if upto > *hi && !(s.T < 0) {
				*hi = upto
			}
		}
		fill(&bi.tcAt, &bi.tcHi, s.Completed)
		fill(&bi.taAt, &bi.taHi, s.Assigned)
		if half := milestones / 2; bi.firstHalfMaxVar < 0 && bi.tcAt[half] >= 0 && bi.taAt[half] >= 0 {
			bi.firstHalfMaxVar = bi.maxVarianceUpTo(half)
		}
	}
	if s.Completed >= bi.Size && bi.Size > 0 && bi.CompletedAt < 0 {
		bi.CompletedAt = s.T
	}
}

// percent is the milestone a count reaches: ⌊count·100/size⌋ within
// [0, milestones], 0 for an empty batch. Filling and reading both index by
// it, so a tick reads the milestone its counts filled.
func (bi *BatchInfo) percent(count int) int {
	switch {
	case bi.Size <= 0 || count <= 0:
		return 0
	case count >= bi.Size:
		return milestones
	}
	return count * milestones / bi.Size
}

// Last returns the most recent sample (zero Sample if none).
func (bi *BatchInfo) Last() Sample { return bi.last }

// CompletedFraction returns the latest completion ratio.
func (bi *BatchInfo) CompletedFraction() float64 {
	if bi.Size == 0 {
		return 0
	}
	return float64(bi.Last().Completed) / float64(bi.Size)
}

// tc returns tc(i%): the elapsed time at which completion first reached i
// percent; ok is false if not reached.
func (bi *BatchInfo) tc(i int) (t float64, ok bool) { return bi.tcAt[i], bi.tcAt[i] >= 0 }

// ta returns ta(i%) for the ever-assigned series.
func (bi *BatchInfo) ta(i int) (t float64, ok bool) { return bi.taAt[i], bi.taAt[i] >= 0 }

// variance returns var(i%) = tc(i%) − ta(i%) (§3.5), or ok=false if i
// percent has not completed yet.
func (bi *BatchInfo) variance(i int) (float64, bool) {
	tc, ok1 := bi.tc(i)
	ta, ok2 := bi.ta(i)
	if !ok1 || !ok2 {
		return 0, false
	}
	v := tc - ta
	if v < 0 {
		v = 0
	}
	return v, true
}

// maxVarianceUpTo returns max var(i%) over the milestones 1..limit.
func (bi *BatchInfo) maxVarianceUpTo(limit int) float64 {
	m := 0.0
	for i := 1; i <= limit; i++ {
		if v, ok := bi.variance(i); ok && v > m {
			m = v
		}
	}
	return m
}

// TickView is what one monitor tick reads of a batch: the inputs of the
// Oracle's decision (Oracle.Plan: every Trigger and Sizing) and of the archive
// rule (Oracle.Archive), and nothing else. It carries the latest sample's
// counts, not fractions; CompletedFraction and AssignedFraction divide them by
// the size, as BatchInfo.CompletedFraction does, so a plan from the view is
// the plan from the history, in process or after a JSON round trip. The
// simulator builds it from a BatchInfo in O(1) each tick; the Information
// service answers it to POST /statuses.
type TickView struct {
	Size int `json:"size"`
	// T, Completed, Assigned and Workers are the latest sample's (all 0
	// before the first).
	T         float64 `json:"t"`
	Completed int     `json:"completed"`
	Assigned  int     `json:"assigned"`
	Workers   int     `json:"workers"`
	// PeakWorkers is the largest attached-worker count observed so far; 0
	// when the DG does not report it.
	PeakWorkers int `json:"peak_workers"`
	// ExecVariance is var(c) at the current completion fraction;
	// MaxVarianceFirstHalf is max var(x) for x ≤ 50%. Both are -1 when
	// not yet defined.
	ExecVariance         float64 `json:"exec_variance"`
	MaxVarianceFirstHalf float64 `json:"max_variance_first_half"`
	// TC50 is tc(0.5) (elapsed seconds), or -1 before half completion.
	TC50 float64 `json:"tc50"`
	// CompletedAt is the elapsed time of the completing sample, -1 while
	// the batch runs.
	CompletedAt float64 `json:"completed_at"`
}

// CompletedFraction returns the latest completion ratio.
func (v TickView) CompletedFraction() float64 {
	if v.Size == 0 {
		return 0
	}
	return float64(v.Completed) / float64(v.Size)
}

// AssignedFraction returns the latest ever-assigned ratio.
func (v TickView) AssignedFraction() float64 {
	if v.Size == 0 {
		return 0
	}
	return float64(v.Assigned) / float64(v.Size)
}

// Done reports whether the batch completed.
func (v TickView) Done() bool { return v.CompletedAt >= 0 }

// Execution is what Oracle.Archive records of a done batch (Table 4's point):
// base = tc(0.5)/0.5, the constant-rate estimate at half completion, and
// actual = the completion time; ok is false for a running batch or tc(0.5) 0.
func (v TickView) Execution() (base, actual float64, ok bool) {
	if !v.Done() || v.TC50 <= 0 {
		return 0, 0, false
	}
	return v.TC50 / 0.5, v.CompletedAt, true
}

// TickView summarizes the batch as of its latest sample, for a tick.
func (bi *BatchInfo) TickView() TickView {
	last := bi.Last()
	v := TickView{
		Size: bi.Size, T: last.T, Completed: last.Completed, Assigned: last.Assigned, Workers: last.Workers,
		PeakWorkers: bi.PeakWorkers, ExecVariance: -1, MaxVarianceFirstHalf: -1, TC50: -1,
		CompletedAt: bi.CompletedAt,
	}
	if x, ok := bi.variance(bi.percent(last.Completed)); ok {
		v.ExecVariance = x
	}
	if v.CompletedFraction() >= 0.5 {
		v.MaxVarianceFirstHalf = bi.firstHalfMaxVar
		if v.MaxVarianceFirstHalf < 0 {
			// Assignment lags completion in the history: not fixed yet.
			v.MaxVarianceFirstHalf = bi.maxVarianceUpTo(milestones / 2)
		}
	}
	if tc, ok := bi.tc(milestones / 2); ok {
		v.TC50 = tc
	}
	return v
}

// BatchView is the full monitoring summary of one batch, as GET
// /information/batches/{id} serves it and the Oracle's prediction reads it:
// the tick's inputs (TickView) plus the batch's identity, its sample count,
// its fractions and its whole latest sample.
type BatchView struct {
	BatchID           string  `json:"batch_id"`
	EnvKey            string  `json:"env_key"`
	Size              int     `json:"size"`
	Samples           int     `json:"samples"`
	CompletedFraction float64 `json:"completed_fraction"`
	AssignedFraction  float64 `json:"assigned_fraction"`
	Done              bool    `json:"done"`
	CompletedAt       float64 `json:"completed_at"`
	LastSample        Sample  `json:"last_sample"`
	// ExecVariance and MaxVarianceFirstHalf are TickView's.
	ExecVariance         float64 `json:"exec_variance"`
	MaxVarianceFirstHalf float64 `json:"max_variance_first_half"`
	// TC50 is tc(0.5) (elapsed seconds), or -1 before half completion.
	TC50 float64 `json:"tc50"`
	// PeakWorkers is the largest attached-worker count observed so far (the
	// current one is LastSample.Workers); 0 when the DG does not report it.
	PeakWorkers int `json:"peak_workers,omitempty"`
}

// View summarizes the batch as of its latest sample.
func (bi *BatchInfo) View() BatchView {
	t := bi.TickView()
	return BatchView{
		BatchID: bi.BatchID, EnvKey: bi.EnvKey, Size: bi.Size,
		Samples:           bi.samples,
		CompletedFraction: t.CompletedFraction(),
		AssignedFraction:  t.AssignedFraction(),
		Done:              t.Done(),
		CompletedAt:       t.CompletedAt,
		LastSample:        bi.Last(),
		ExecVariance:      t.ExecVariance, MaxVarianceFirstHalf: t.MaxVarianceFirstHalf, TC50: t.TC50,
		PeakWorkers: t.PeakWorkers,
	}
}

// Information is the SpeQuloS Information module: it archives the
// executions of every QoS-enabled BoT across BE-DCIs. It is safe for
// concurrent use (the service layer queries it from HTTP handlers).
type Information struct {
	mu      sync.RWMutex
	batches map[string]*BatchInfo
}

// NewInformation returns an empty archive.
func NewInformation() *Information {
	return &Information{batches: map[string]*BatchInfo{}}
}

// Track registers a batch; it errors if the ID is already tracked.
func (in *Information) Track(batchID, envKey string, size int, submittedAt float64) (*BatchInfo, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.batches[batchID]; ok {
		return nil, fmt.Errorf("information: batch %q already tracked", batchID)
	}
	bi := NewBatchInfo(batchID, envKey, size, submittedAt)
	in.batches[batchID] = bi
	return bi, nil
}

// AddSample adds a sample to a tracked batch's history under the archive's
// lock, so it may run beside View and WriteJSON; false if the batch is not
// tracked.
func (in *Information) AddSample(batchID string, s Sample) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	bi := in.batches[batchID]
	if bi != nil {
		bi.add(s)
	}
	return bi != nil
}

// View summarizes a tracked batch under the archive's lock; false if the
// batch is not tracked.
func (in *Information) View(batchID string) (BatchView, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	bi := in.batches[batchID]
	if bi == nil {
		return BatchView{}, false
	}
	return bi.View(), true
}

// TickView summarizes a tracked batch for a tick under the archive's lock;
// false if the batch is not tracked.
func (in *Information) TickView(batchID string) (TickView, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	bi := in.batches[batchID]
	if bi == nil {
		return TickView{}, false
	}
	return bi.TickView(), true
}

// Count returns the number of tracked batches.
func (in *Information) Count() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.batches)
}

// BatchIDs lists tracked batches, sorted.
func (in *Information) BatchIDs() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]string, 0, len(in.batches))
	for id := range in.batches {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
