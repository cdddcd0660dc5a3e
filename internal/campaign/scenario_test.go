package campaign

import (
	"strings"
	"testing"
)

// TestScenarioValidate pins the CLIs' one input check: a scenario of known
// coordinates passes, and each unknown coordinate is named with the known
// values (an unknown BoT class used to panic inside Campaign.Run).
func TestScenarioValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Scenario)
		want string // "" = valid
	}{
		{"valid", func(*Scenario) {}, ""},
		{"middleware", func(sc *Scenario) { sc.Middleware = "SLURM" },
			`unknown middleware "SLURM" (known: BOINC XWHEP CONDOR)`},
		{"trace", func(sc *Scenario) { sc.TraceName = "seti2" },
			`unknown trace "seti2" (known: seti nd g5klyo g5kgre spot10 spot100)`},
		{"bot class", func(sc *Scenario) { sc.BotClass = "HUGE" },
			`unknown bot class "HUGE" (known: SMALL BIG RANDOM)`},
	} {
		sc := Scenario{Profile: tiny(), Middleware: CONDOR, TraceName: "spot10", BotClass: "RANDOM"}
		c.edit(&sc)
		err := sc.Validate()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}
