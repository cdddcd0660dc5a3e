package emul

import (
	"testing"

	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// archives holds, per environment key, the α archive a backend held when it
// closed.
type archives map[string]core.CalibrationFit

// inProcessArchive is campaign's in-process backend, reading the Oracle's
// archive of every registered environment before it closes.
type inProcessArchive struct {
	*core.Service
	envs map[string]bool
	out  archives
}

func (q *inProcessArchive) Register(id, envKey string, size int, tier core.Tier, credits float64, srv middleware.Server) {
	if credits > 0 {
		q.Credits.Deposit("user", credits)
	}
	if err := q.RegisterQoS("user", id, envKey, size, tier, credits, srv); err != nil {
		panic(err)
	}
	q.envs[envKey] = true
}
func (q *inProcessArchive) Close() {
	for env := range q.envs {
		q.out[env] = q.Oracle.Calibration.Fit(env)
	}
}

// httpArchive is the HTTP stack's backend, reading every registered
// environment's archive with GET /oracle/calibration/{env} before it closes.
type httpArchive struct {
	*HTTPBackend
	envs map[string]bool
	out  archives
	t    *testing.T
}

func (b *httpArchive) Register(id, envKey string, size int, tier core.Tier, credits float64, srv middleware.Server) {
	b.HTTPBackend.Register(id, envKey, size, tier, credits, srv)
	b.envs[envKey] = true
}
func (b *httpArchive) Close() {
	for env := range b.envs {
		st, err := b.stack.OracleClient.Calibration(env)
		if err != nil {
			b.t.Errorf("GET /oracle/calibration/%s: %v", env, err)
		}
		b.out[env] = core.CalibrationFit{Alpha: st.Alpha, Count: st.Count}
	}
	b.HTTPBackend.Close()
}

// TestDeploymentsArchiveAlike: the α archive a cell leaves behind is the same
// whether the Oracle runs in process or behind the HTTP stack, where it reads
// each finished batch's tick view from Information itself. One QuickSpec cell
// and one crowd cell run both ways; per environment, the archived count and α
// are equal.
func TestDeploymentsArchiveAlike(t *testing.T) {
	for name, spec := range map[string]Spec{"quick": QuickSpec(), "crowd": crowdSpec()} {
		sc := spec.withDefaults().scenarios()[0]
		t.Run(name, func(t *testing.T) {
			simOut, emulOut := archives{}, archives{}
			inProc := campaign.Job{Scenario: sc, Backend: func(eng *sim.Engine, _ middleware.Server, cl *cloud.SimCloud, cfg core.Config) campaign.Backend {
				return &inProcessArchive{Service: core.NewService(eng, cl, cfg), envs: map[string]bool{}, out: simOut}
			}}
			emulated := campaign.Job{Scenario: sc, Backend: func(eng *sim.Engine, primary middleware.Server, cl *cloud.SimCloud, cfg core.Config) campaign.Backend {
				return &httpArchive{HTTPBackend: HTTPStack(eng, primary, cl, cfg).(*HTTPBackend), envs: map[string]bool{}, out: emulOut, t: t}
			}}
			for _, j := range []campaign.Job{inProc, emulated} {
				if e := campaign.Execute(j); e.Err != "" || !e.Result.Completed {
					t.Fatalf("%s: err %q, completed %v", j.Key(), e.Err, e.Result.Completed)
				}
			}
			if len(simOut) == 0 || len(simOut) != len(emulOut) {
				t.Fatalf("environments archived: sim %v, emul %v", simOut, emulOut)
			}
			for env, s := range simOut {
				e := emulOut[env]
				if s.Count == 0 {
					t.Errorf("%s: nothing archived in process", env)
				}
				if s.Count != e.Count || s.Alpha != e.Alpha {
					t.Errorf("%s: sim archived %d executions at α %v, emul %d at α %v", env, s.Count, s.Alpha, e.Count, e.Alpha)
				}
			}
		})
	}
}
