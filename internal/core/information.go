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

// BatchInfo is the monitored history of one BoT execution. The milestone
// caches give O(1) access to tc(x) (time at which x% of the BoT was
// completed) and ta(x) (time at which x% was assigned), the two series
// every Oracle strategy is built from.
type BatchInfo struct {
	BatchID     string
	EnvKey      string // environment (middleware/BE-DCI/BoT class) for α calibration
	Size        int
	SubmittedAt float64
	Samples     []Sample
	CompletedAt float64 // -1 while running
	// PeakWorkers is the largest worker count observed so far.
	PeakWorkers int

	// tcAt[i] is the elapsed time at which completion first reached i
	// percent; -1 if not yet. taAt is the same for assignment.
	tcAt [milestones + 1]float64
	taAt [milestones + 1]float64
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

// AddSample appends an observation taken at absolute time now.
func (bi *BatchInfo) AddSample(now float64, completed, assigned, queued, running int) {
	bi.AddSampleWorkers(now, completed, assigned, queued, running, 0)
}

// AddSampleWorkers appends an observation including the infrastructure
// state (attached worker count).
func (bi *BatchInfo) AddSampleWorkers(now float64, completed, assigned, queued, running, workers int) {
	t := now - bi.SubmittedAt
	s := Sample{T: t, Completed: completed, Assigned: assigned, Queued: queued, Running: running, Workers: workers}
	if workers > bi.PeakWorkers {
		bi.PeakWorkers = workers
	}
	bi.Samples = append(bi.Samples, s)
	if bi.Size > 0 {
		fill := func(cache *[milestones + 1]float64, count int) {
			upto := count * milestones / bi.Size
			if upto > milestones {
				upto = milestones
			}
			for i := 1; i <= upto; i++ {
				if cache[i] < 0 {
					cache[i] = t
				}
			}
		}
		fill(&bi.tcAt, completed)
		fill(&bi.taAt, assigned)
		if half := milestones / 2; bi.firstHalfMaxVar < 0 && bi.tcAt[half] >= 0 && bi.taAt[half] >= 0 {
			bi.firstHalfMaxVar = bi.MaxExecutionVarianceUpTo(0.5)
		}
	}
	if completed >= bi.Size && bi.Size > 0 && bi.CompletedAt < 0 {
		bi.CompletedAt = t
	}
}

// Last returns the most recent sample (zero Sample if none).
func (bi *BatchInfo) Last() Sample {
	if len(bi.Samples) == 0 {
		return Sample{}
	}
	return bi.Samples[len(bi.Samples)-1]
}

// CompletedFraction returns the latest completion ratio.
func (bi *BatchInfo) CompletedFraction() float64 {
	if bi.Size == 0 {
		return 0
	}
	return float64(bi.Last().Completed) / float64(bi.Size)
}

// AssignedFraction returns the latest ever-assigned ratio.
func (bi *BatchInfo) AssignedFraction() float64 {
	if bi.Size == 0 {
		return 0
	}
	return float64(bi.Last().Assigned) / float64(bi.Size)
}

// Done reports whether the batch completed.
func (bi *BatchInfo) Done() bool { return bi.CompletedAt >= 0 }

// TimeAtCompletion returns tc(x): the elapsed time at which completion
// first reached fraction x, at 1% resolution. ok is false if not reached.
func (bi *BatchInfo) TimeAtCompletion(x float64) (t float64, ok bool) {
	return bi.at(&bi.tcAt, x)
}

// TimeAtAssignment returns ta(x) for the ever-assigned series.
func (bi *BatchInfo) TimeAtAssignment(x float64) (t float64, ok bool) {
	return bi.at(&bi.taAt, x)
}

func (bi *BatchInfo) at(cache *[milestones + 1]float64, x float64) (float64, bool) {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	i := int(x * milestones)
	v := cache[i]
	return v, v >= 0
}

// ExecutionVariance returns var(x) = tc(x) − ta(x) (§3.5), or ok=false if
// fraction x has not completed yet.
func (bi *BatchInfo) ExecutionVariance(x float64) (float64, bool) {
	tc, ok1 := bi.TimeAtCompletion(x)
	ta, ok2 := bi.TimeAtAssignment(x)
	if !ok1 || !ok2 {
		return 0, false
	}
	v := tc - ta
	if v < 0 {
		v = 0
	}
	return v, true
}

// MaxExecutionVarianceUpTo returns max var(x) over milestones in (0, x].
func (bi *BatchInfo) MaxExecutionVarianceUpTo(x float64) float64 {
	max := 0.0
	limit := int(x * milestones)
	if limit > milestones {
		limit = milestones
	}
	for i := 1; i <= limit; i++ {
		if v, ok := bi.ExecutionVariance(float64(i) / milestones); ok && v > max {
			max = v
		}
	}
	return max
}

// BatchView is the monitoring summary of one batch: every input of the
// Oracle's decision (Oracle.Plan) and prediction. The simulator builds it
// from a BatchInfo in O(1) each tick; the Information service serves the same
// value as JSON, so the Oracle module decides from the same inputs on the far
// side of the wire.
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
	// ExecVariance is var(c) at the current completion fraction;
	// MaxVarianceFirstHalf is max var(x) for x ≤ 50%. Both are -1 when
	// not yet defined.
	ExecVariance         float64 `json:"exec_variance"`
	MaxVarianceFirstHalf float64 `json:"max_variance_first_half"`
	// TC50 is tc(0.5) (elapsed seconds), or -1 before half completion;
	// the Oracle's calibration input.
	TC50 float64 `json:"tc50"`
	// PeakWorkers is the largest attached-worker count observed so far (the
	// current one is LastSample.Workers); 0 when the DG does not report it.
	PeakWorkers int `json:"peak_workers,omitempty"`
}

// View summarizes the batch as of its latest sample.
func (bi *BatchInfo) View() BatchView {
	v := BatchView{
		BatchID: bi.BatchID, EnvKey: bi.EnvKey, Size: bi.Size,
		Samples:           len(bi.Samples),
		CompletedFraction: bi.CompletedFraction(),
		AssignedFraction:  bi.AssignedFraction(),
		Done:              bi.Done(),
		CompletedAt:       bi.CompletedAt,
		LastSample:        bi.Last(),
		ExecVariance:      -1, MaxVarianceFirstHalf: -1, TC50: -1,
		PeakWorkers: bi.PeakWorkers,
	}
	if x, ok := bi.ExecutionVariance(v.CompletedFraction); ok {
		v.ExecVariance = x
	}
	if v.CompletedFraction >= 0.5 {
		v.MaxVarianceFirstHalf = bi.firstHalfMaxVar
		if v.MaxVarianceFirstHalf < 0 {
			// Assignment lags completion in the history: not fixed yet.
			v.MaxVarianceFirstHalf = bi.MaxExecutionVarianceUpTo(0.5)
		}
	}
	if tc, ok := bi.TimeAtCompletion(0.5); ok {
		v.TC50 = tc
	}
	return v
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

// AddSample appends a sample to a tracked batch's history under the archive's
// lock, so it may run beside View and WriteJSON; false if the batch is not
// tracked.
func (in *Information) AddSample(batchID string, s Sample) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	bi := in.batches[batchID]
	if bi != nil {
		bi.AddSampleWorkers(bi.SubmittedAt+s.T, s.Completed, s.Assigned, s.Queued, s.Running, s.Workers)
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
