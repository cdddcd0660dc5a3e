package service

import (
	"net/http"
	"net/http/httptest"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
)

// Stack is a complete SpeQuloS service deployment: the four modules and the
// clients wiring them together. Modules only ever talk through their HTTP
// clients — even when co-located — so a Stack deployed on one host behaves
// identically to one split across networks (Fig 8).
type Stack struct {
	Information *InformationService
	Credit      *CreditService
	Oracle      *OracleService
	Scheduler   *SchedulerService

	InfoClient      *InformationClient
	CreditClient    *CreditClient
	OracleClient    *OracleClient
	SchedulerClient *SchedulerClient

	servers []*httptest.Server
}

// StackConfig parameterizes a deployment.
type StackConfig struct {
	Strategy core.Strategy
	Registry *cloud.Registry
	DG       DGGateway
}

// NewTestStack starts every module on its own loopback HTTP server — a
// faithful miniature of the paper's distributed deployment. Close releases
// the listeners.
func NewTestStack(cfg StackConfig) *Stack {
	if cfg.Registry == nil {
		cfg.Registry = cloud.DefaultRegistry()
	}
	st := &Stack{}

	st.Information = NewInformationService(core.NewInformation())
	infoSrv := httptest.NewServer(st.Information)
	st.servers = append(st.servers, infoSrv)
	st.InfoClient = NewInformationClient(infoSrv.URL)

	st.Credit = NewCreditService(core.NewCreditSystem())
	creditSrv := httptest.NewServer(st.Credit)
	st.servers = append(st.servers, creditSrv)
	st.CreditClient = NewCreditClient(creditSrv.URL)

	st.Oracle = NewOracleService(core.NewOracle(cfg.Strategy), st.InfoClient)
	oracleSrv := httptest.NewServer(st.Oracle)
	st.servers = append(st.servers, oracleSrv)
	st.OracleClient = NewOracleClient(oracleSrv.URL)

	st.Scheduler = NewSchedulerService(st.InfoClient, st.CreditClient, st.OracleClient, cfg.Registry, cfg.DG)
	schedSrv := httptest.NewServer(st.Scheduler)
	st.servers = append(st.servers, schedSrv)
	st.SchedulerClient = NewSchedulerClient(schedSrv.URL)

	return st
}

// Close shuts every module server down.
func (s *Stack) Close() {
	for _, srv := range s.servers {
		srv.Close()
	}
}

// SetClock injects the wall clock of every clock-bearing module. The
// emulation harness (internal/emul) uses it to run the whole deployment on
// the simulation's virtual clock; production deployments keep time.Now.
func (s *Stack) SetClock(now func() time.Time) {
	s.Information.SetClock(now)
	s.Scheduler.Now = now
}

// Mux mounts all four modules under one HTTP mux with path prefixes —
// the single-host deployment used by cmd/spequlosd:
//
//	/information/…  /credit/…  /oracle/…  /scheduler/…
func Mux(info *InformationService, credit *CreditService, oracle *OracleService, sched *SchedulerService) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/information/", http.StripPrefix("/information", info))
	mux.Handle("/credit/", http.StripPrefix("/credit", credit))
	mux.Handle("/oracle/", http.StripPrefix("/oracle", oracle))
	mux.Handle("/scheduler/", http.StripPrefix("/scheduler", sched))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}
