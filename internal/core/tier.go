package core

import (
	"fmt"
	"sort"
)

// This file layers a multi-tenant QoS tier model over the Scheduler,
// modeled on the qos-prioritizer pattern (SNIPPETS.md #1): tenants buy
// into tiers, each tier carries a weight (its share of contended cloud
// supply), a base priority, and an admission cap. When more batches want
// cloud support than the fleet cap allows, admission is decided by
// weighted slot reservation plus priority scoring with a wait boost, so
// enterprise batches go first but free batches cannot starve.

// Tier is a QoS service class. The zero value means "untiered" and is
// treated as TierFree wherever a policy is active; with no policy at all
// tiers are ignored entirely and every batch is admitted (the legacy
// single-tenant behavior).
type Tier string

// The three service classes, in descending order of privilege.
const (
	TierEnterprise Tier = "enterprise"
	TierPremium    Tier = "premium"
	TierFree       Tier = "free"
)

// AllTiers lists the service classes in descending privilege order.
func AllTiers() []Tier { return []Tier{TierEnterprise, TierPremium, TierFree} }

// ParseTier validates a wire-format tier name. The empty string is valid
// and maps to the empty (untiered) value; an unknown name is ErrMalformed.
func ParseTier(s string) (Tier, error) {
	switch t := Tier(s); t {
	case "", TierEnterprise, TierPremium, TierFree:
		return t, nil
	}
	return "", fmt.Errorf("core: %w: unknown tier %q (use enterprise, premium or free)", ErrMalformed, s)
}

// OrFree maps the untiered zero value to TierFree.
func (t Tier) OrFree() Tier {
	if t == "" {
		return TierFree
	}
	return t
}

// Rank orders tiers by privilege: enterprise 2, premium 1, free (and
// untiered) 0. The service gateway uses it to reject requests claiming a
// class above the caller's credential.
func (t Tier) Rank() int {
	switch t {
	case TierEnterprise:
		return 2
	case TierPremium:
		return 1
	}
	return 0
}

// TierSpec is the contract of one service class.
type TierSpec struct {
	// Weight is the tier's share of contended fleet slots, relative to the
	// other tiers' weights.
	Weight float64 `json:"weight"`
	// Priority is the base admission score; higher wins a contended slot.
	Priority float64 `json:"priority"`
	// MaxActive caps how many batches of this tier may hold cloud support
	// concurrently (0 = unlimited).
	MaxActive int `json:"max_active"`
}

// TierPolicy gates which QoS batches get cloud workers when supply is
// contended. A nil policy admits everything — the untiered behavior.
type TierPolicy struct {
	// Tiers maps each service class to its contract.
	Tiers map[Tier]TierSpec `json:"tiers"`
	// FleetCap bounds the number of batches holding cloud support at once
	// across all tiers (0 = unlimited).
	FleetCap int `json:"fleet_cap"`
	// WaitBoost is priority added per hour a candidate has waited for
	// admission, preventing starvation of low tiers.
	WaitBoost float64 `json:"wait_boost"`
}

// DefaultTierPolicy returns the three-class contract of the qos-prioritizer
// exemplar: enterprise 70% weight, premium 20%, free 10%, with priorities
// 140/60/10 and admission caps 100/50/20, boosting one priority point per
// waiting hour.
func DefaultTierPolicy() *TierPolicy {
	return &TierPolicy{
		Tiers: map[Tier]TierSpec{
			TierEnterprise: {Weight: 0.70, Priority: 140, MaxActive: 100},
			TierPremium:    {Weight: 0.20, Priority: 60, MaxActive: 50},
			TierFree:       {Weight: 0.10, Priority: 10, MaxActive: 20},
		},
		WaitBoost: 1,
	}
}

// Spec returns the tier's contract; unknown tiers get the free tier's (or a
// zero spec if the policy doesn't define free either).
func (p *TierPolicy) Spec(t Tier) TierSpec {
	if s, ok := p.Tiers[t.OrFree()]; ok {
		return s
	}
	return p.Tiers[TierFree]
}

// Score is a candidate's admission priority: the tier's base priority plus
// the wait boost accrued since it became eligible.
func (p *TierPolicy) Score(t Tier, waitSeconds float64) float64 {
	if waitSeconds < 0 {
		waitSeconds = 0
	}
	return p.Spec(t).Priority + p.WaitBoost*waitSeconds/3600
}

// TierCandidate is a batch whose trigger has fired and that is waiting for
// an admission slot.
type TierCandidate struct {
	BatchID string
	Tier    Tier
	// Since is the virtual time the batch first became eligible; longer
	// waits score higher.
	Since float64
}

// Admit selects which candidates may begin cloud support now, given how
// many batches per tier already hold it. Slots freed by the fleet cap are
// first reserved per tier in proportion to weight (the weighted credit
// queues), then leftovers go to the highest scores overall; per-tier
// MaxActive caps apply throughout. The result is deterministic: ties break
// on batch ID. A nil policy admits every candidate.
func (p *TierPolicy) Admit(now float64, active map[Tier]int, cands []TierCandidate) map[string]bool {
	admitted := make(map[string]bool, len(cands))
	if p == nil {
		for _, c := range cands {
			admitted[c.BatchID] = true
		}
		return admitted
	}
	totalActive := 0
	for _, n := range active {
		totalActive += n
	}
	slots := len(cands)
	if p.FleetCap > 0 {
		slots = p.FleetCap - totalActive
		if slots <= 0 {
			return admitted
		}
		if slots > len(cands) {
			slots = len(cands)
		}
	}

	// Rank candidates by score, ties on batch ID for determinism.
	ranked := make([]TierCandidate, len(cands))
	copy(ranked, cands)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := p.Score(ranked[i].Tier, now-ranked[i].Since), p.Score(ranked[j].Tier, now-ranked[j].Since)
		if si != sj {
			return si > sj
		}
		return ranked[i].BatchID < ranked[j].BatchID
	})

	// Per-tier headroom under MaxActive.
	headroom := func(t Tier) int {
		spec := p.Spec(t)
		if spec.MaxActive <= 0 {
			return slots
		}
		return spec.MaxActive - active[t.OrFree()]
	}
	room := map[Tier]int{}
	for _, c := range ranked {
		t := c.Tier.OrFree()
		if _, ok := room[t]; !ok {
			room[t] = headroom(t)
		}
	}

	// Pass 1 — weighted reservation: each tier with candidates gets
	// floor(slots·weight/Σweight) guaranteed slots, served best-first.
	totalWeight := 0.0
	for t := range room {
		totalWeight += p.Spec(t).Weight
	}
	reserved := map[Tier]int{}
	if totalWeight > 0 {
		for t := range room {
			reserved[t] = int(float64(slots) * p.Spec(t).Weight / totalWeight)
		}
	}
	take := func(c TierCandidate, useReserved bool) {
		t := c.Tier.OrFree()
		if admitted[c.BatchID] || slots <= 0 || room[t] <= 0 {
			return
		}
		if useReserved && reserved[t] <= 0 {
			return
		}
		admitted[c.BatchID] = true
		room[t]--
		slots--
		if useReserved {
			reserved[t]--
		}
	}
	for _, c := range ranked {
		take(c, true)
	}
	// Pass 2 — leftover slots go to the best remaining scores overall.
	for _, c := range ranked {
		take(c, false)
	}
	return admitted
}
