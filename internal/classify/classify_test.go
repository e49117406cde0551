package classify

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

func dmConfig() cache.Config {
	return cache.Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

func TestKindStringsAndGrouping(t *testing.T) {
	if Compulsory.String() != "compulsory" || Capacity.String() != "capacity" || Conflict.String() != "conflict" {
		t.Error("kind names wrong")
	}
	if Hit.String() != "hit" {
		t.Error("hit kind should render 'hit'")
	}
	if Kind(9).String() != "unknown" {
		t.Error("unknown kind should render 'unknown'")
	}
	if Hit.IsMiss() || !Compulsory.IsMiss() || !Capacity.IsMiss() || !Conflict.IsMiss() {
		t.Error("IsMiss wrong")
	}
	// The paper groups compulsory with capacity.
	if Compulsory.Grouped() != core.Capacity || Capacity.Grouped() != core.Capacity {
		t.Error("compulsory/capacity must group as capacity")
	}
	if Conflict.Grouped() != core.Conflict {
		t.Error("conflict must group as conflict")
	}
}

func TestOracleCompulsory(t *testing.T) {
	o := MustNewOracle(dmConfig())
	if k := o.Observe(0x1000, false); k != Compulsory {
		t.Errorf("first touch = %v", k)
	}
	// Second miss to the same line after eviction-scale history would not
	// be compulsory; immediately it would be a hit in the real cache, so
	// Observe is called with realHit=true and returns Hit.
	o.Observe(0x1000, true)
	comp, _, _ := o.Counts()
	if comp != 1 {
		t.Errorf("compulsory count = %d", comp)
	}
}

// TestObserveHitReturnsHit is the regression test for the old sentinel bug:
// Observe used to return Compulsory for real-cache hits, so a caller that
// tallied the return value unconditionally silently inflated compulsory
// counts. Hits must now return the distinct Hit kind and leave every miss
// counter untouched.
func TestObserveHitReturnsHit(t *testing.T) {
	o := MustNewOracle(dmConfig())
	if k := o.Observe(0x2000, false); k != Compulsory {
		t.Fatalf("first touch = %v, want compulsory", k)
	}
	for i := 0; i < 5; i++ {
		if k := o.Observe(0x2000, true); k != Hit {
			t.Fatalf("real hit = %v, want Hit", k)
		}
	}
	comp, cap_, conf := o.Counts()
	if comp != 1 || cap_ != 0 || conf != 0 {
		t.Errorf("counts after hits = (%d, %d, %d), want (1, 0, 0): hits must not be tallied as misses",
			comp, cap_, conf)
	}
	// A caller that (incorrectly) records every verdict must not corrupt
	// the accuracy denominators either: Record ignores Hit.
	var a Accuracy
	a.Record(Hit, core.Capacity)
	a.Record(Hit, core.Conflict)
	if a.Misses() != 0 || a.CapacityTotal != 0 || a.ConflictTotal != 0 {
		t.Errorf("Record(Hit, ...) polluted accuracy: %+v", a)
	}
}

func TestOracleConflictVsCapacity(t *testing.T) {
	// A two-line ping-pong in one set of a DM cache: the fully-associative
	// cache holds both lines, so after first touch every miss is conflict.
	o := MustNewOracle(dmConfig())
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	o.Observe(a, false) // compulsory
	o.Observe(b, false) // compulsory
	for i := 0; i < 10; i++ {
		if k := o.Observe(a, false); k != Conflict {
			t.Fatalf("iter %d: a = %v", i, k)
		}
		if k := o.Observe(b, false); k != Conflict {
			t.Fatalf("iter %d: b = %v", i, k)
		}
	}
	// A cyclic sweep over twice the cache's line count misses the FA cache
	// too: capacity.
	o2 := MustNewOracle(dmConfig())
	lines := 2 * 256
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			k := o2.Observe(mem.Addr(i*64), false)
			if pass == 0 && k != Compulsory {
				t.Fatalf("pass 0 line %d = %v", i, k)
			}
			if pass == 1 && k != Capacity {
				t.Fatalf("pass 1 line %d = %v", i, k)
			}
		}
	}
}

func TestOracleObservesHitsForRecency(t *testing.T) {
	// FA recency must advance on real-cache hits too; otherwise a hot line
	// would look FA-cold. Touch a line often (as hits), thrash the FA with
	// other lines, then miss on it: it must still classify capacity
	// (evicted from FA despite... actually verify the opposite: keeping it
	// hot in FA via hits makes the eventual miss a conflict).
	o := MustNewOracle(dmConfig())
	hot := mem.Addr(0x0000)
	o.Observe(hot, false) // compulsory, now resident
	for i := 0; i < 100; i++ {
		o.Observe(hot, true) // hits keep it MRU in the FA cache
		o.Observe(mem.Addr(0x100000+i*64), false)
	}
	if k := o.Observe(hot, false); k != Conflict {
		t.Errorf("hot line miss = %v, want conflict (FA-resident)", k)
	}
}

func TestAccuracyAccounting(t *testing.T) {
	var a Accuracy
	a.Record(Conflict, core.Conflict)
	a.Record(Conflict, core.Capacity)
	a.Record(Capacity, core.Capacity)
	a.Record(Compulsory, core.Capacity)
	a.Record(Compulsory, core.Conflict)
	if a.ConflictTotal != 2 || a.ConflictAgreed != 1 {
		t.Errorf("conflict accounting: %+v", a)
	}
	if a.CapacityTotal != 3 || a.CapacityAgreed != 2 || a.CompulsoryTotal != 2 {
		t.Errorf("capacity accounting: %+v", a)
	}
	if a.ConflictAccuracy() != 0.5 {
		t.Errorf("conflict accuracy = %g", a.ConflictAccuracy())
	}
	if a.OverallAccuracy() != 0.6 {
		t.Errorf("overall = %g", a.OverallAccuracy())
	}
	if a.ConflictShare() != 0.4 {
		t.Errorf("share = %g", a.ConflictShare())
	}
	var b Accuracy
	b.Merge(a)
	if b != a {
		t.Error("merge into empty should copy")
	}
	if (Accuracy{}).ConflictAccuracy() != 0 || (Accuracy{}).CapacityAccuracy() != 0 || (Accuracy{}).OverallAccuracy() != 0 {
		t.Error("empty accuracy should be 0, not NaN")
	}
}

func TestRunLockstepPingPong(t *testing.T) {
	// On the canonical ping-pong the MCT agrees with the oracle perfectly,
	// giving 100% accuracy.
	r, err := NewRun(dmConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	for i := 0; i < 50; i++ {
		r.Access(a, false)
		r.Access(b, false)
	}
	if r.Acc.ConflictTotal == 0 {
		t.Fatal("ping-pong should generate conflict misses")
	}
	if r.Acc.ConflictAccuracy() != 1.0 {
		t.Errorf("MCT conflict accuracy on pure ping-pong = %g, want 1",
			r.Acc.ConflictAccuracy())
	}
	if r.Acc.CapacityAccuracy() != 1.0 {
		t.Errorf("capacity accuracy = %g, want 1", r.Acc.CapacityAccuracy())
	}
}

func TestRunSweepMostlyCapacity(t *testing.T) {
	// A cyclic sweep over 4x the cache is capacity-dominated, and with
	// four lines aliasing per set the MCT's one-deep memory classifies
	// them correctly as capacity.
	r, err := NewRun(dmConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := 4 * 256
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			r.Access(mem.Addr(i*64), false)
		}
	}
	if r.Acc.ConflictTotal != 0 {
		t.Errorf("pure sweep produced %d oracle-conflict misses", r.Acc.ConflictTotal)
	}
	if r.Acc.CapacityAccuracy() != 1.0 {
		t.Errorf("capacity accuracy = %g", r.Acc.CapacityAccuracy())
	}
}

func TestRunTwoLineSweepMisclassifies(t *testing.T) {
	// The systematic error mode: a region with exactly two lines per set
	// is pure capacity (FA thrashes too), but the MCT's one-deep eviction
	// memory sees a ping-pong and labels it conflict (DESIGN.md kernel
	// SweepLoop rationale).
	r, err := NewRun(dmConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := 2 * 256
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			r.Access(mem.Addr(i*64), false)
		}
	}
	if r.Acc.ConflictTotal != 0 {
		t.Fatalf("oracle should see no conflicts in a 2x-cache sweep")
	}
	if acc := r.Acc.CapacityAccuracy(); acc > 0.5 {
		t.Errorf("capacity accuracy = %g; expected heavy misclassification in the k=2 sweep", acc)
	}
}

func TestPartialTagsBiasTowardConflict(t *testing.T) {
	// Figure 2's mechanism in miniature: with 1 stored bit, about half of
	// capacity misses falsely match and classify conflict.
	full, err := NewRun(dmConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewRun(dmConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lines := 8 * 256
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			full.Access(mem.Addr(i*64), false)
			small.Access(mem.Addr(i*64), false)
		}
	}
	if fullAcc, smallAcc := full.Acc.CapacityAccuracy(), small.Acc.CapacityAccuracy(); smallAcc >= fullAcc {
		t.Errorf("1-bit tags should lose capacity accuracy: full=%g small=%g", fullAcc, smallAcc)
	}
}

func TestNewRunRejectsBadConfig(t *testing.T) {
	if _, err := NewRun(cache.Config{Size: 3}, 0); err == nil {
		t.Error("bad cache config accepted")
	}
	if _, err := NewRun(dmConfig(), -3); err == nil {
		t.Error("bad tag bits accepted")
	}
}

// TestObserveSteadyStateAllocs pins the oracle hot path at zero
// allocations per access: the LineSet bitmap and the arena-backed
// fully-associative model must not touch the heap once warmed. A
// regression here multiplies across every simulated instruction.
func TestObserveSteadyStateAllocs(t *testing.T) {
	o := MustNewOracle(benchConfig())
	addrs := benchAddrs(4096)
	for _, a := range addrs {
		o.Observe(a, false)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		o.Observe(addrs[i%len(addrs)], false)
		i++
	}); avg != 0 {
		t.Fatalf("Oracle.Observe steady state allocates %v allocs/op, want 0", avg)
	}
}

// TestAccessBatchSteadyStateAllocs pins the batched classification kernel
// at zero allocations per batch: once the result arrays and the oracle's
// staging scratch have grown to the working batch size, replaying batches
// must not touch the heap. This is the kernel every batch consumer
// (mctsim -trace, the service upload path, perfbench's layer suite)
// sits on.
func TestAccessBatchSteadyStateAllocs(t *testing.T) {
	run, err := NewRun(benchConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	addrs := benchAddrs(256)
	stores := make([]bool, len(addrs))
	for i := range stores {
		stores[i] = i%5 == 0
	}
	run.AccessBatch(addrs, stores) // warm: grow results and scratch, touch lines
	if avg := testing.AllocsPerRun(1000, func() {
		run.AccessBatch(addrs, stores)
	}); avg != 0 {
		t.Fatalf("Run.AccessBatch steady state allocates %v allocs/batch, want 0", avg)
	}
}
