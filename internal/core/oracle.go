package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Trigger decides when cloud workers should be started for a BoT (§3.5), from
// what a tick reads of it (TickView).
type Trigger interface {
	// Code is the short name used in strategy-combination labels
	// ("9C", "9A", "D").
	Code() string
	// ShouldStart reports whether cloud support should begin now.
	ShouldStart(v TickView) bool
}

// CompletionThreshold (9C) starts cloud workers once the completed-task
// fraction reaches Frac (0.9 in the paper).
type CompletionThreshold struct{ Frac float64 }

// Code implements Trigger.
func (t CompletionThreshold) Code() string {
	return fmt.Sprintf("%.0fC", t.Frac*10)
}

// ShouldStart implements Trigger.
func (t CompletionThreshold) ShouldStart(v TickView) bool {
	return v.CompletedFraction() >= t.Frac
}

// CountDriven implements CountDrivenTrigger: the answer only changes with
// the completed-task count.
func (CompletionThreshold) CountDriven() {}

// AssignmentThreshold (9A) starts cloud workers once the ever-assigned
// fraction reaches Frac.
type AssignmentThreshold struct{ Frac float64 }

// Code implements Trigger.
func (t AssignmentThreshold) Code() string {
	return fmt.Sprintf("%.0fA", t.Frac*10)
}

// ShouldStart implements Trigger.
func (t AssignmentThreshold) ShouldStart(v TickView) bool {
	return v.AssignedFraction() >= t.Frac
}

// CountDriven implements CountDrivenTrigger: the answer only changes with
// the ever-assigned count.
func (AssignmentThreshold) CountDriven() {}

// ExecutionVariance (D) starts cloud workers when var(c) = tc(c) − ta(c)
// doubles versus the maximum observed during the first half of the
// execution — a dynamic tail detector (§3.5).
type ExecutionVariance struct{}

// Code implements Trigger.
func (ExecutionVariance) Code() string { return "D" }

// ShouldStart implements Trigger.
func (ExecutionVariance) ShouldStart(v TickView) bool {
	if v.CompletedFraction() < 0.5 {
		return false // the reference maximum spans the first half
	}
	cur, ref := v.ExecVariance, v.MaxVarianceFirstHalf
	if cur < 0 {
		return false // var(c) not defined yet
	}
	if ref <= 0 {
		// Degenerate reference (instant assignments): fall back to an
		// absolute guard so the trigger still fires in the tail.
		return cur > 0
	}
	return cur >= 2*ref
}

// CountDriven implements CountDrivenTrigger: var(c) is built from the
// tc/ta milestone caches, which only move when task counters move.
func (ExecutionVariance) CountDriven() {}

// Sizing decides how many cloud workers to start, given what a tick reads of
// the BoT (TickView) and the credit allowance expressed in CPU·hours (§3.5).
type Sizing interface {
	// Code is the short name ("G", "C").
	Code() string
	// Workers returns the number of cloud workers to start now.
	Workers(v TickView, creditCPUHours float64) int
	// ReleasesIdle reports whether booted cloud workers that obtained no work
	// are stopped at once, releasing their credits.
	ReleasesIdle() bool
}

// Greedy (G) starts the whole allowance at once: S workers for S CPU·hours
// of credit; idle ones are stopped by the Scheduler to release credits.
type Greedy struct{}

// Code implements Sizing.
func (Greedy) Code() string { return "G" }

// Workers implements Sizing.
func (Greedy) Workers(_ TickView, creditCPUHours float64) int {
	if creditCPUHours <= 0 {
		return 0
	}
	return maxInt(1, int(creditCPUHours))
}

// ReleasesIdle implements Sizing: "Cloud workers that do not have tasks
// assigned stop immediately" (§3.5).
func (Greedy) ReleasesIdle() bool { return true }

// Conservative (C) estimates the remaining execution time tr from the
// current completion rate and starts min(S/tr, S) workers, so the workers
// can be funded for the whole estimated remainder. (The paper prints
// max(S/tr, S); the stated goal — "ensuring that there will be enough
// credits for them to run during the estimated time" — requires min: max
// would start at least S workers, which S CPU·hours of credits fund for one
// hour only, short of tr whenever tr exceeds an hour.)
type Conservative struct{}

// Code implements Sizing.
func (Conservative) Code() string { return "C" }

// Workers implements Sizing.
func (Conservative) Workers(v TickView, creditCPUHours float64) int {
	if creditCPUHours <= 0 {
		return 0
	}
	xe := v.CompletedFraction()
	if xe <= 0 {
		// No completion rate yet (a 9A trigger can fire on assignments
		// alone): the whole allowance starts.
		return maxInt(1, int(creditCPUHours))
	}
	elapsed := v.T
	tr := elapsed/xe - elapsed // estimated remaining seconds at constant rate
	trHours := tr / 3600
	n := creditCPUHours
	if trHours > 0 {
		n = math.Min(creditCPUHours/trHours, creditCPUHours)
	}
	return maxInt(1, int(n))
}

// ReleasesIdle implements Sizing: the fleet is sized to stay funded, so it
// is kept.
func (Conservative) ReleasesIdle() bool { return false }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Deployment is how cloud workers are attached to the infrastructure
// (§3.5): Flat (unmodified server, cloud workers compete), Reschedule
// (patched server serves cloud workers pending work, then duplicates), or
// CloudDuplication (a dedicated cloud-hosted server executes a copy of the
// tail; results are merged).
type Deployment int

// Deployment strategies.
const (
	Flat Deployment = iota
	Reschedule
	CloudDuplication
)

// Code returns the short name ("F", "R", "D").
func (d Deployment) Code() string {
	switch d {
	case Flat:
		return "F"
	case Reschedule:
		return "R"
	case CloudDuplication:
		return "D"
	}
	return "?"
}

// String returns the deployment's full name (its Code is the label letter).
func (d Deployment) String() string {
	switch d {
	case Flat:
		return "Flat"
	case Reschedule:
		return "Reschedule"
	case CloudDuplication:
		return "CloudDuplication"
	}
	return "Unknown"
}

// Strategy is a full provisioning strategy combination, named like the
// paper: e.g. 9C-C-R = Completion threshold, Conservative, Reschedule.
type Strategy struct {
	Trigger Trigger
	Sizing  Sizing
	Deploy  Deployment
}

// Label returns the paper-style combination label.
func (s Strategy) Label() string {
	return s.Trigger.Code() + "-" + s.Sizing.Code() + "-" + s.Deploy.Code()
}

// DefaultStrategy is 9C-C-R, the combination the paper selects as "a good
// compromise between Tail Removal Efficiency performance, credits
// consumption and ease of implementation" (§4.3).
func DefaultStrategy() Strategy {
	return Strategy{Trigger: CompletionThreshold{0.9}, Sizing: Conservative{}, Deploy: Reschedule}
}

// AllStrategies enumerates the 18 combinations evaluated in Fig 4 and 5.
func AllStrategies() []Strategy {
	triggers := []Trigger{CompletionThreshold{0.9}, AssignmentThreshold{0.9}, ExecutionVariance{}}
	sizings := []Sizing{Greedy{}, Conservative{}}
	deploys := []Deployment{Flat, Reschedule, CloudDuplication}
	var out []Strategy
	for _, d := range deploys {
		for _, tr := range triggers {
			for _, sz := range sizings {
				out = append(out, Strategy{Trigger: tr, Sizing: sz, Deploy: d})
			}
		}
	}
	return out
}

// StrategyByLabel parses a paper-style label like "9A-G-D".
func StrategyByLabel(label string) (Strategy, error) {
	for _, s := range AllStrategies() {
		if s.Label() == label {
			return s, nil
		}
	}
	return Strategy{}, fmt.Errorf("core: unknown strategy %q", label)
}

// Prediction is the Oracle's answer to getQoSInformation (§3.4).
type Prediction struct {
	// PredictedTime is the predicted total completion time of the BoT,
	// in seconds from submission: tp = α·tc(r)/r.
	PredictedTime float64 `json:"predicted_time"`
	// Uncertainty is the historical success rate (within ±20%) of
	// predictions in the same environment, in [0,1].
	Uncertainty float64 `json:"uncertainty"`
	// Alpha is the calibration factor used.
	Alpha float64 `json:"alpha"`
	// CompletedFraction is the ratio the prediction was computed at.
	CompletedFraction float64 `json:"completed_fraction"`
}

// PredictionTolerance is the ±20% success band of §3.4.
const PredictionTolerance = 0.20

// Calibration stores per-environment α factors fitted from the history of
// BoT executions (§3.4: "the value of α is adjusted to minimize the average
// difference between the predicted time and the completion times actually
// observed"). Minimizing the mean absolute error of α·base against actual
// is a weighted-median fit.
type Calibration struct {
	mu    sync.RWMutex
	byEnv map[string]*envCal
}

type envCal struct {
	bases   []float64 // tc(r)/r measured at prediction time, in archive order
	actuals []float64 // observed completion times, in archive order
	// fit holds the archive as (actual/base, base) pairs sorted by ratio, pairs
	// of equal ratio in archive order, and total the bases summed in archive
	// order: the sorted sample and the weight total stats.WeightedMedian
	// rebuilds from scratch, kept current so a refit neither sorts nor
	// allocates.
	fit   []fitPair
	total float64
	alpha float64
}

type fitPair struct{ ratio, base float64 }

// refit sets α to the weighted median of the fitted pairs: the first ratio
// at which the running weight reaches half the total.
func (e *envCal) refit() {
	acc := 0.0
	for _, p := range e.fit {
		acc += p.base
		if acc >= e.total/2 {
			e.alpha = p.ratio
			return
		}
	}
	e.alpha = e.fit[len(e.fit)-1].ratio
}

// NewCalibration returns an empty calibration store.
func NewCalibration() *Calibration { return &Calibration{byEnv: map[string]*envCal{}} }

// execution reports whether a (base, actual) pair is an execution to archive:
// both sides positive, and both and their ratio finite, so α is a number
// and the pair survives the JSON state image.
func execution(base, actual float64) bool {
	inf := math.Inf(1)
	return base > 0 && actual > 0 && base < inf && actual < inf && actual/base < inf
}

// Record archives one finished execution's (base, actual) pair and refits α
// for the environment: one sorted insert and one prefix walk, whatever the
// archive holds. The α is bit-for-bit stats.WeightedMedian's over the
// archive's ratios weighted by their bases. A pair that is not an execution
// is dropped.
func (c *Calibration) Record(envKey string, base, actual float64) {
	if !execution(base, actual) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byEnv[envKey]
	if !ok {
		e = &envCal{alpha: 1}
		c.byEnv[envKey] = e
	}
	e.bases = append(e.bases, base)
	e.actuals = append(e.actuals, actual)
	e.total += base
	ratio := actual / base
	at := sort.Search(len(e.fit), func(i int) bool { return e.fit[i].ratio > ratio })
	e.fit = slices.Insert(e.fit, at, fitPair{ratio, base})
	e.refit()
}

// load archives a snapshot's pairs in bulk, in their order, and fits α once;
// the state is what Record reaches pair by pair.
func (c *Calibration) load(envKey string, bases, actuals []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byEnv[envKey]
	if !ok {
		e = &envCal{alpha: 1}
	}
	for i, base := range bases {
		if actual := actuals[i]; execution(base, actual) {
			e.bases = append(e.bases, base)
			e.actuals = append(e.actuals, actual)
			e.total += base
			e.fit = append(e.fit, fitPair{actual / base, base})
		}
	}
	if len(e.fit) == 0 {
		return
	}
	sort.SliceStable(e.fit, func(i, j int) bool { return e.fit[i].ratio < e.fit[j].ratio })
	e.refit()
	c.byEnv[envKey] = e
}

// CalibrationFit is one environment's calibration as of one instant: α (1
// with no history), and how many of the Count archived executions α·base
// predicted within ±PredictionTolerance of the actual completion time.
type CalibrationFit struct {
	Alpha       float64
	Hits, Count int
}

// SuccessRate is Hits/Count (0 with no history): the uncertainty reported
// to users.
func (f CalibrationFit) SuccessRate() float64 {
	if f.Count == 0 {
		return 0
	}
	return float64(f.Hits) / float64(f.Count)
}

// Fit reads the environment's α, hits and archive size under one read lock.
func (c *Calibration) Fit(envKey string) CalibrationFit {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.byEnv[envKey]
	if !ok {
		return CalibrationFit{Alpha: 1}
	}
	f := CalibrationFit{Alpha: e.alpha, Count: len(e.bases)}
	for i, base := range e.bases {
		tp := e.alpha * base
		if math.Abs(e.actuals[i]-tp) <= PredictionTolerance*tp {
			f.Hits++
		}
	}
	return f
}

// Oracle is the SpeQuloS Oracle module: completion-time prediction plus the
// provisioning strategies (§3.4, §3.5).
type Oracle struct {
	// Strategy is fixed once the Oracle is built.
	Strategy    Strategy
	Calibration *Calibration
	// notFired and fired are Plan's reasons, worded once from the trigger's
	// code: the simulator plans every waiting batch every tick.
	notFired, fired string
}

// NewOracle builds an Oracle with the given strategy and a fresh
// calibration store.
func NewOracle(s Strategy) *Oracle {
	o := &Oracle{Strategy: s, Calibration: NewCalibration()}
	if s.Trigger != nil {
		o.notFired = "trigger " + s.Trigger.Code() + " not fired"
		o.fired = "trigger " + s.Trigger.Code() + " fired"
	}
	return o
}

// Predict computes the completion-time prediction for a BoT at its current
// progress (§3.4): tp = α·tc(r)/r.
func (o *Oracle) Predict(bi *BatchInfo, now float64) (Prediction, error) {
	return o.predict(bi.BatchID, bi.EnvKey, now-bi.SubmittedAt, bi.CompletedFraction())
}

// PredictView is Predict from a batch summary, as of its latest sample.
func (o *Oracle) PredictView(v BatchView) (Prediction, error) {
	return o.predict(v.BatchID, v.EnvKey, v.LastSample.T, v.CompletedFraction)
}

func (o *Oracle) predict(batchID, envKey string, elapsed, r float64) (Prediction, error) {
	if r <= 0 {
		return Prediction{}, fmt.Errorf("oracle: batch %q has no completed tasks yet", batchID)
	}
	fit := o.Calibration.Fit(envKey)
	return Prediction{
		PredictedTime:     fit.Alpha * elapsed / r,
		Uncertainty:       fit.SuccessRate(),
		Alpha:             fit.Alpha,
		CompletedFraction: r,
	}, nil
}

// Plan is the Oracle's provisioning decision for one batch at one monitor
// tick (Algorithm 1).
type Plan struct {
	// Start says cloud workers should be started now, Workers how many.
	Start   bool   `json:"start"`
	Workers int    `json:"workers"`
	Reason  string `json:"reason"`
	// ReleaseIdle tells the Scheduler to stop booted workers that obtained
	// no work, releasing their credits (see Sizing.ReleasesIdle).
	ReleaseIdle bool `json:"release_idle"`
}

// Plan is Algorithm 1's Oracle.shouldUseCloud and cloudWorkersToStart in one
// decision: whether the strategy's trigger fires on the batch as summarized,
// and how many workers its sizing funds with creditCPUHours of remaining
// credits, never more than there are tasks left. It reads the batch as a tick
// does (TickView), so the in-process Scheduler and the Oracle service, which
// reads the view from Information's POST /statuses, both decide here on the
// same inputs.
func (o *Oracle) Plan(v TickView, creditCPUHours float64) Plan {
	if v.Done() {
		return Plan{Reason: "batch complete"}
	}
	st := o.Strategy
	if !st.Trigger.ShouldStart(v) {
		return Plan{Reason: o.notFired}
	}
	n := st.Sizing.Workers(v, creditCPUHours)
	if remaining := v.Size - v.Completed; n > remaining {
		n = remaining
	}
	return Plan{Start: n > 0, Workers: n, ReleaseIdle: st.Sizing.ReleasesIdle(), Reason: o.fired}
}
