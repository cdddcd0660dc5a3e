package service

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
)

// Stack is a complete SpeQuloS service deployment: the four modules served
// on one listener, and the clients wiring them together. Modules only ever
// talk through their HTTP clients — even when co-located — so a Stack behaves
// as one split across networks would (Fig 8). Every client, the modules'
// clients of one another included, shares HTTP: the one transport seam of the
// deployment.
type Stack struct {
	Information *InformationService
	Credit      *CreditService
	Oracle      *OracleService
	Scheduler   *SchedulerService

	InfoClient      *InformationClient
	CreditClient    *CreditClient
	OracleClient    *OracleClient
	SchedulerClient *SchedulerClient

	// URL is the listener's base address, HTTP the client every module
	// client sends with; behind a gate it carries an unlimited service key.
	URL  string
	HTTP *http.Client

	srv       *http.Server
	transport *http.Transport
	served    chan error
}

// StackConfig parameterizes a deployment. State is what the modules serve
// (a daemon passes what it restored); nil starts them empty.
type StackConfig struct {
	Strategy core.Strategy
	Registry *cloud.Registry
	DG       DGGateway
	State    *core.State

	// Keys, when non-nil, puts KeyManager.Gate in front of the modules.
	Keys *KeyManager
	// Listener is where the stack serves; nil opens a loopback port.
	Listener net.Listener
}

// NewStack serves the four modules on one listener, each under its prefix:
//
//	/information/…  /credit/…  /oracle/…  /scheduler/…  /healthz
//
// The clients address the listener's own address, a wildcard host reached
// over loopback. Close stops serving.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.Registry == nil {
		cfg.Registry = cloud.DefaultRegistry()
	}
	state := core.NewState()
	if cfg.State != nil {
		state = *cfg.State
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("service: stack listener: %w", err)
		}
	}
	addr := ln.Addr().(*net.TCPAddr)
	if addr.IP.IsUnspecified() {
		// A wildcard listener from net.Listen("tcp", …) is dual-stack, so
		// IPv4 loopback reaches it whichever family it reports.
		addr = &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: addr.Port}
	}
	st := &Stack{URL: "http://" + addr.String(), served: make(chan error, 1),
		transport: http.DefaultTransport.(*http.Transport).Clone()}
	st.HTTP = &http.Client{Transport: st.transport}
	if cfg.Keys != nil {
		// The modules' calls of one another loop back through the gate: an
		// unlimited service key keeps them from being refused or throttled.
		svc := cfg.Keys.Issue("spequlos-service", core.TierEnterprise)
		svc.Unlimited = true
		cfg.Keys.Add(svc)
		st.HTTP.Transport = keyedTransport{key: svc.Key, base: st.transport}
	}

	st.InfoClient = &InformationClient{Client{st.URL + "/information", st.HTTP}}
	st.CreditClient = &CreditClient{Client{st.URL + "/credit", st.HTTP}}
	st.OracleClient = &OracleClient{Client{st.URL + "/oracle", st.HTTP}}
	st.SchedulerClient = &SchedulerClient{Client{st.URL + "/scheduler", st.HTTP}}

	oracle := core.NewOracle(cfg.Strategy)
	oracle.Calibration = state.Calibration
	st.Information = NewInformationService(state.Information)
	st.Credit = NewCreditService(state.Credits)
	st.Oracle = NewOracleService(oracle, st.InfoClient)
	st.Scheduler = NewSchedulerService(st.InfoClient, st.CreditClient, st.OracleClient, cfg.Registry, cfg.DG)

	mux := http.NewServeMux()
	mux.Handle("/information/", http.StripPrefix("/information", st.Information))
	mux.Handle("/credit/", http.StripPrefix("/credit", st.Credit))
	mux.Handle("/oracle/", http.StripPrefix("/oracle", st.Oracle))
	mux.Handle("/scheduler/", http.StripPrefix("/scheduler", st.Scheduler))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	var h http.Handler = mux
	if cfg.Keys != nil {
		h = cfg.Keys.Gate(h)
	}
	st.srv = &http.Server{Handler: h}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// Wait blocks until the stack stops serving and returns why.
func (s *Stack) Wait() error { return <-s.served }

// Close stops serving and drops the clients' idle connections.
func (s *Stack) Close() {
	s.srv.Close()
	s.transport.CloseIdleConnections()
}

// SetClock injects the wall clock of every clock-bearing module. The
// emulation harness (internal/emul) uses it to run the whole deployment on
// the simulation's virtual clock; production deployments keep time.Now.
func (s *Stack) SetClock(now func() time.Time) {
	s.Information.SetClock(now)
	s.Scheduler.Now = now
}
