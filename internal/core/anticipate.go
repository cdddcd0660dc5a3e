package core

import "math"

// This file implements the paper's stated future work (§7): "anticipate
// when a BoT is likely to produce a tail by correlating the execution with
// the state of the infrastructure: resource heterogeneity, variation in the
// number of computing resources and rare events such as massive failures or
// network partitioning."
//
// CapacityAware is a trigger that combines a (lower) completion threshold
// with an infrastructure-state signal: the number of workers attached to
// the DG server, which the Information module records with every sample.
// When enough of the BoT is done for cloud help to be affordable AND the
// infrastructure has lost a significant fraction of its peak capacity —
// the signature of a massive failure or a best-effort preemption wave —
// cloud workers start early, before the plain 90% threshold would fire.

// CapacityAware anticipates tails from infrastructure capacity drops.
type CapacityAware struct {
	// MinCompleted is the minimum completed fraction before the trigger
	// may fire at all (cloud help for the bulk would be too expensive).
	MinCompleted float64
	// DropFraction is the capacity-loss fraction versus the observed peak
	// that signals trouble (e.g. 0.5 = half the workers are gone).
	DropFraction float64
	// Fallback is the completed fraction at which the trigger fires
	// regardless of capacity (a safety net, typically 0.9).
	Fallback float64
}

// DefaultCapacityAware returns the calibration used by the ablation bench:
// fire from 70% completion on a 50% capacity drop, with the standard 90%
// fallback.
func DefaultCapacityAware() CapacityAware {
	return CapacityAware{MinCompleted: 0.7, DropFraction: 0.5, Fallback: 0.9}
}

// Code implements Trigger.
func (t CapacityAware) Code() string { return "CA" }

// ShouldStart implements Trigger.
func (t CapacityAware) ShouldStart(v TickView) bool {
	c := v.CompletedFraction()
	if t.Fallback > 0 && c >= t.Fallback {
		return true
	}
	if c < t.MinCompleted {
		return false
	}
	if v.PeakWorkers <= 0 || v.Workers <= 0 {
		return false
	}
	lost := 1 - float64(v.Workers)/float64(v.PeakWorkers)
	return lost >= t.DropFraction
}

// Floor implements Trigger: nothing below MinCompleted completed, or below
// Fallback if that is set and lower.
func (t CapacityAware) Floor() (completed, assigned float64) {
	if t.Fallback > 0 {
		return math.Min(t.Fallback, t.MinCompleted), 0
	}
	return t.MinCompleted, 0
}

var _ Trigger = CapacityAware{}
