package core

import "testing"

func TestCapacityAwareFallback(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.AddSampleWorkers(60, 92, 100, 0, 8, 50) // healthy infra, 92% done
	if !tr.ShouldStart(bi.View()) {
		t.Fatal("fallback threshold did not fire at 92%")
	}
}

func TestCapacityAwareAnticipatesDrop(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.AddSampleWorkers(60, 40, 100, 0, 60, 200) // peak 200 workers
	bi.AddSampleWorkers(120, 75, 100, 0, 25, 190)
	if tr.ShouldStart(bi.View()) {
		t.Fatal("fired with healthy capacity")
	}
	// Massive failure: 70% of the workers vanish at 75% completion — the
	// plain 9C trigger would wait for 90%.
	bi.AddSampleWorkers(180, 76, 100, 0, 24, 60)
	if !tr.ShouldStart(bi.View()) {
		t.Fatal("did not anticipate the capacity drop")
	}
	if (CompletionThreshold{Frac: 0.9}).ShouldStart(bi.View()) {
		t.Fatal("baseline trigger should not have fired yet (sanity)")
	}
}

func TestCapacityAwareRespectsMinCompleted(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.AddSampleWorkers(60, 10, 100, 0, 90, 200)
	bi.AddSampleWorkers(120, 20, 100, 0, 80, 20) // huge drop, but only 20% done
	if tr.ShouldStart(bi.View()) {
		t.Fatal("fired below MinCompleted: cloud would compute the bulk")
	}
}

func TestCapacityAwareNoWorkerData(t *testing.T) {
	tr := DefaultCapacityAware()
	bi := NewBatchInfo("b", "e", 100, 0)
	bi.AddSample(60, 80, 100, 0, 20) // legacy samples without worker counts
	if tr.ShouldStart(bi.View()) {
		t.Fatal("fired without infrastructure data below the fallback")
	}
	bi.AddSample(120, 95, 100, 0, 5)
	if !tr.ShouldStart(bi.View()) {
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
