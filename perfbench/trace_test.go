package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	// parent [0,100] with children [10,30] and [40,90]; an aggregate
	// child of 5 calls totalling 7 under the second child.
	tr.spans = []span{
		{ID: 1, Name: "job", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, Name: "step", EndNS: 7, Count: 5},
		{ID: 5, Parent: 1, Name: "open", StartNS: 95, EndNS: -1},
	}
	self := tr.selfTimes()
	want := map[string]time.Duration{"job": 30, "a": 20, "b": 43, "step": 7}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unfinished span was counted")
	}
	if c := tr.counts(); c["step"] != 5 || c["job"] != 1 {
		t.Errorf("counts = %v", c)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	tr.end(id)
	tr.aggregate("y", 0, "", time.Second, 3)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}
