package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("request", "r1", 0, at(0), at(100))
	tr.record("child", "r1", root, at(10), at(30))
	tr.record("child", "r1", root, at(20), at(50))  // overlaps the first child
	tr.record("child", "r1", root, at(90), at(120)) // runs past its parent's end
	got := map[string]layerTime{}
	for _, lt := range tr.selfTimes() {
		got[lt.Name] = lt
	}
	if r := got["request"]; r.Calls != 1 || r.TotalMS != 100 || r.SelfMS != 50 {
		t.Errorf("request: %+v, want 1 call, 100 ms total, 50 ms self", r)
	}
	if c := got["child"]; c.Calls != 3 || c.TotalMS != 80 || c.SelfMS != 80 {
		t.Errorf("child: %+v, want 3 calls, 80 ms total and self", c)
	}
	var off *tracer
	if id := off.begin("x", "", 0); id != 0 || off.selfTimes() != nil {
		t.Error("a nil tracer should record nothing")
	}
}
