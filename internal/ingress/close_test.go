package ingress

import (
	"sync/atomic"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// Deterministic pins for the group combiner's idle-loop close rule. The
// combiner runs over a stub applier that defers every batch and issues
// no instrumented step, so between a batch's apply and the window close
// the combiner's only steps are the batch's compact boundary and its
// idle polls (one Step each). Counting steps rather than time makes the
// idle-poll count exact on any host.

const stubBatch = 4

func stubMem() *pmem.Memory {
	return pmem.New(pmem.Config{Words: capsule.ProcWords + 1<<10, Mode: pmem.Private, Checked: true})
}

// boundarySteps measures the instrumented steps between a compact
// routine's Boundary call and the entry of the capsule it resumes at —
// the steps a deferred batch's boundary charges before the next idle
// loop begins.
func boundarySteps(t *testing.T) uint64 {
	t.Helper()
	mem := stubMem()
	rt := proc.NewRuntime(mem, 1)
	port := rt.Proc(0).Mem()
	reg := capsule.NewRegistry()
	var s0, n uint64
	rid := reg.Register("probe", true,
		func(c *capsule.Ctx) { s0 = port.Stats.Steps; c.Boundary(1) },
		func(c *capsule.Ctx) { n = port.Stats.Steps - s0; c.Finish() })
	base := capsule.AllocProcAreas(mem, 1)[0]
	capsule.Install(port, base, reg, rid)
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) { capsule.NewMachine(p, reg, base).Run() }
	})
	if n == 0 {
		t.Fatal("compact boundary took no instrumented step")
	}
	return n
}

// stubPool is a one-shard pool with two producers: producer 0 publishes
// from the host and is done up front; producer 1 stays live until the
// first window close (the stub's close hook marks it done), so a batch
// without waiters must wait out the idle grace rather than close at
// finish. Pass live = false to mark both done up front.
func stubPool(live bool) *Pool {
	pool := NewPool(1, 16, stubBatch, 2)
	pool.MarkDone(0)
	if !live {
		pool.MarkDone(1)
	}
	return pool
}

// stubRecs builds n put records; those with tokened[i] carry a
// completion slot.
func stubRecs(tokened ...bool) []Record {
	recs := make([]Record, len(tokened))
	for i, tk := range tokened {
		recs[i] = Record{Op: OpPut, A: uint64(i) + 1, B: uint64(i) + 1}
		if tk {
			recs[i].Token, recs[i].Done = uint64(i)+1, new(atomic.Uint64)
		}
	}
	return recs
}

func publish(pool *Pool, recs []Record) {
	for _, r := range recs {
		pool.Shard(0).Ring.Publish(r, nil)
	}
}

// runStub runs the group combiner over the stub applier to completion
// and returns the proc's step count at each apply and at each close.
// onApply (optional) runs inside apply with the 1-based apply count;
// onRestart (optional) runs in the restart wrapper after a crash.
func runStub(pool *Pool, onApply func(c *capsule.Ctx, n int), onRestart func()) (applied, closed []uint64) {
	mem := stubMem()
	rt := proc.NewRuntime(mem, 1)
	port := rt.Proc(0).Mem()
	reg := capsule.NewRegistry()
	comb := RegisterGroupCombiner(reg, "stub", pool, 0,
		func(c *capsule.Ctx, batch []Record) bool {
			applied = append(applied, port.Stats.Steps)
			if onApply != nil {
				onApply(c, len(applied))
			}
			return true
		},
		func(c *capsule.Ctx) {
			closed = append(closed, port.Stats.Steps)
			pool.MarkDone(1)
		})
	base := capsule.AllocProcAreas(mem, 1)[0]
	capsule.Install(port, base, reg, comb)
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) {
			if p.PeekCrashed() && onRestart != nil {
				onRestart()
			}
			capsule.NewMachine(p, reg, base).Run()
		}
	})
	return applied, closed
}

// idlePolls checks that exactly one batch was applied and one window
// closed, and returns the idle Steps the combiner issued in between.
func idlePolls(t *testing.T, b uint64, applied, closed []uint64) uint64 {
	t.Helper()
	if len(applied) != 1 || len(closed) != 1 {
		t.Fatalf("got %d applies and %d closes, want one each", len(applied), len(closed))
	}
	return closed[0] - applied[0] - b
}

func TestGroupCloseRule(t *testing.T) {
	b := boundarySteps(t)
	for _, tc := range []struct {
		name    string
		tokened []bool
		live    bool // a second producer stays live until the close
		polls   uint64
		want    CloseCounts
	}{
		{"waiter", []bool{true, true, true, true}, true, 0, CloseCounts{Waiter: 1}},
		{"mixed", []bool{false, true, false, false}, true, 0, CloseCounts{Waiter: 1}},
		// The grace-th empty poll closes instead of stepping.
		{"fire-and-forget", []bool{false, false, false, false}, true, groupIdleGrace - 1, CloseCounts{Grace: 1}},
		{"finish", []bool{false, false, false, false}, false, 0, CloseCounts{Finish: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := stubPool(tc.live)
			recs := stubRecs(tc.tokened...)
			publish(pool, recs)
			applied, closed := runStub(pool, nil, nil)
			if n := idlePolls(t, b, applied, closed); n != tc.polls {
				t.Fatalf("closed after %d idle steps, want %d", n, tc.polls)
			}
			if got := pool.Shard(0).Closes; got != tc.want {
				t.Fatalf("closes %+v, want %+v", got, tc.want)
			}
			for i, r := range recs {
				if r.Done != nil && r.Done.Load() != r.Token {
					t.Fatalf("record %d: token %d never released", i, r.Token)
				}
			}
		})
	}
}

// TestGroupCloseEpochClearsWaiters crashes the combiner right after it
// holds a tokened batch; the restart wrapper resets the pool (epoch
// bump, ring wiped) and publishes a fire-and-forget batch. The dropped
// tokened records must take their waiter state with them: the new batch
// waits out the full grace.
func TestGroupCloseEpochClearsWaiters(t *testing.T) {
	b := boundarySteps(t)
	pool := stubPool(true)
	tokened := stubRecs(true, true, true, true)
	publish(pool, tokened)
	applied, closed := runStub(pool,
		func(c *capsule.Ctx, n int) {
			if n == 1 {
				c.P().CrashNow() // first step of the batch's boundary
			}
		},
		func() {
			pool.Reset()
			publish(pool, stubRecs(false, false, false, false))
		})
	if len(applied) != 2 {
		t.Fatalf("got %d applies, want 2 (tokened batch, then post-reset batch)", len(applied))
	}
	if n := idlePolls(t, b, applied[1:], closed); n != groupIdleGrace-1 {
		t.Fatalf("post-reset fire-and-forget batch closed after %d idle steps, want %d", n, groupIdleGrace-1)
	}
	if got, want := pool.Shard(0).Closes, (CloseCounts{Grace: 1}); got != want {
		t.Fatalf("closes %+v, want %+v", got, want)
	}
	for i, r := range tokened {
		if r.Done.Load() != 0 {
			t.Fatalf("record %d: token of a batch dropped by the reset was released", i)
		}
	}
}
