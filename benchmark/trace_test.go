package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spanOp, op: 1, parent: -1, start: 0, end: 100},
		// Children overlap each other and one sticks out of its parent:
		// only the covered part of [0, 100) counts, once.
		{name: spanNewRun, op: 1, parent: 0, start: 10, end: 30},
		{name: spanSteps, op: 1, parent: 0, start: 20, end: 50},
		{name: spanFinish, op: 1, parent: 0, start: 90, end: 120},
		{name: spanReplay, op: 1, parent: -1, start: 120, end: 200},
		{name: spanKey, op: 1, parent: 4, start: 130, end: 140},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30, 30, 80 - 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestResiduals(t *testing.T) {
	spans := []span{
		{name: spanOp, op: 1, parent: -1, start: 0, end: 1000},
		{name: spanOp, op: 2, parent: -1, start: 1000, end: 1500},
		// Replayed after op 1: two on-path layers, one run three times,
		// and one off-path layer that must not count.
		{name: spanReplay, op: 1, parent: -1, start: 1500, end: 1900},
		{name: spanKey, op: 1, parent: 2, start: 1500, end: 1600, path: 1},
		{name: spanAppend, op: 1, parent: 2, start: 1600, end: 1700, path: 3},
		{name: spanBuild, op: 1, parent: 2, start: 1700, end: 1900},
	}
	got := residuals(spans)
	want := []int64{1000 - 100 - 3*100, 500}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("residuals %v, want %v", got, want)
	}
}

func TestPathCountsCoverTheirWork(t *testing.T) {
	d := doc{Kind: kindSimulate}
	if pathCount("serve-hot", d, 40, spanSteps) != 0 {
		t.Error("serve-hot is served from the cache; core is not on its path")
	}
	if pathCount("serve-cold", d, 40, spanSteps) != 1 || pathCount("sim-sweep", d, 40, spanNewRun) != 1 {
		t.Error("core is on the path of serve-cold and sim-sweep")
	}
	if got := pathCount("serve-durable", d, 40, spanAppend); got != 3+40/checkpointLayers {
		t.Errorf("durable simulate job journals %d records, want %d", got, 3+40/checkpointLayers)
	}
	if pathCount("serve-durable", doc{Kind: kindSchedule}, 40, spanSweep) != 0 {
		t.Error("a schedule job does not run a sweep")
	}
}
