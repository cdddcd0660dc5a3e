package core

import "testing"

func TestCapacityAwareFallback(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.add(Sample{T: 60, Completed: 92, Assigned: 100, Running: 8, Workers: 50}) // healthy infra, 92% done
	if !tr.ShouldStart(bi.TickView()) {
		t.Fatal("fallback threshold did not fire at 92%")
	}
}

func TestCapacityAwareAnticipatesDrop(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.add(Sample{T: 60, Completed: 40, Assigned: 100, Running: 60, Workers: 200}) // peak 200 workers
	bi.add(Sample{T: 120, Completed: 75, Assigned: 100, Running: 25, Workers: 190})
	if tr.ShouldStart(bi.TickView()) {
		t.Fatal("fired with healthy capacity")
	}
	// Massive failure: 70% of the workers vanish at 75% completion — the
	// plain 9C trigger would wait for 90%.
	bi.add(Sample{T: 180, Completed: 76, Assigned: 100, Running: 24, Workers: 60})
	if !tr.ShouldStart(bi.TickView()) {
		t.Fatal("did not anticipate the capacity drop")
	}
	if (CompletionThreshold{Frac: 0.9}).ShouldStart(bi.TickView()) {
		t.Fatal("baseline trigger should not have fired yet (sanity)")
	}
}

func TestCapacityAwareRespectsMinCompleted(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.add(Sample{T: 60, Completed: 10, Assigned: 100, Running: 90, Workers: 200})
	bi.add(Sample{T: 120, Completed: 20, Assigned: 100, Running: 80, Workers: 20}) // huge drop, but only 20% done
	if tr.ShouldStart(bi.TickView()) {
		t.Fatal("fired below MinCompleted: cloud would compute the bulk")
	}
}

func TestCapacityAwareNoWorkerData(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.AddSample(60, 80, 100, 0, 20) // legacy samples without worker counts
	if tr.ShouldStart(bi.TickView()) {
		t.Fatal("fired without infrastructure data below the fallback")
	}
	bi.AddSample(120, 95, 100, 0, 5)
	if !tr.ShouldStart(bi.TickView()) {
		t.Fatal("fallback must still work without worker data")
	}
}

func TestCapacityAwareCode(t *testing.T) {
	if DefaultCapacityAware().Code() != "CA" {
		t.Fatal("code wrong")
	}
	st := Strategy{Trigger: DefaultCapacityAware(), Sizing: Conservative{}, Deploy: Reschedule}
	if st.Label() != "CA-C-R" {
		t.Fatalf("label = %s", st.Label())
	}
}
