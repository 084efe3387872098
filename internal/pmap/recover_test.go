package pmap

import (
	"maps"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// recoverFixture is a durable two-shard map with the group-commit tier
// whose pre-crash epoch (classic puts, then batched puts and a close)
// has just ended in a full-system crash. apply runs one batch plus its
// close on process p. want holds the contents every completed pre-crash
// operation left.
type recoverFixture struct {
	rt    *proc.Runtime
	m     *Map
	apply func(p *proc.Proc, batch []BatchOp)
	want  map[uint64]uint64
}

func newRecoverFixture(t *testing.T, seed int64) *recoverFixture {
	t.Helper()
	const P, buckets, shards, window = 1, 64, 2, 16
	mem := pmem.New(pmem.Config{
		Words: BatchWords(buckets, shards, P, 1, 0, window) + P*capsule.ProcWords + 1<<13,
		Mode:  pmem.Shared, Checked: true, Seed: seed,
	})
	rt := proc.NewRuntime(mem, P)
	rt.SystemCrashMode = true
	m := New(Config{Mem: mem, P: P, Buckets: buckets, Shards: shards, Opt: true, Durable: true,
		BatchCombiners: 1, BatchWindow: window})
	f := &recoverFixture{rt: rt, m: m, want: map[uint64]uint64{}}
	// Contents go in by ordered puts, not Init's map, so bucket
	// placement and thus every step count is the same in every run.
	m.Init(mem.NewPort(), nil)
	m.Bind(rt)
	reg := capsule.NewRegistry()
	m.Register(reg)
	ba := NewBatchApplier(m)
	var ops []BatchOp
	rid := reg.Register("batch-apply", true, func(c *capsule.Ctx) {
		ba.Apply(c, ops)
		c.Done()
	})
	bases := capsule.AllocProcAreas(mem, P)
	capsule.InstallIdle(rt.Proc(0).Mem(), bases[0], reg, m.Routine())
	f.apply = func(p *proc.Proc, batch []BatchOp) {
		ops = batch
		capsule.NewMachine(p, reg, bases[0]).Invoke(rid, 0)
		ba.Close(p.ID())
	}

	mach := capsule.NewMachine(rt.Proc(0), reg, bases[0])
	for k := uint64(1); k <= 24; k++ {
		put(mach, m, k, k)
		f.want[k] = k
	}
	for k := uint64(1); k <= 24; k += 3 {
		put(mach, m, k, 100+k)
		f.want[k] = 100 + k
	}
	var batch []BatchOp
	for k := uint64(2); k <= 30; k += 2 {
		batch = append(batch, BatchOp{K: k, V: 200 + k})
		f.want[k] = 200 + k
	}
	f.apply(rt.Proc(0), batch)
	rt.CrashSystem()
	return f
}

// firstMapBatch is the first post-recovery batch: it overwrites keys
// across both shards.
func firstMapBatch() []BatchOp {
	var batch []BatchOp
	for k := uint64(1); k <= 30; k += 5 {
		batch = append(batch, BatchOp{K: k, V: 300 + k})
	}
	return batch
}

// TestMapRecoverCrashSweep crashes at every instrumented step of
// Map.Recover and the first post-recovery batch, then reruns recovery.
// The rerun must leave every segment exactly as an uninterrupted
// recovery of the same image would — another Recover straight after it
// finds no word to change — and the map must hold the pre-crash
// contents with the batch applied once the batch completes.
func TestMapRecoverCrashSweep(t *testing.T) {
	const seed = 9
	f := newRecoverFixture(t, seed)
	port := f.rt.Proc(0).Mem()
	start := port.Stats.Steps
	f.m.Recover(port)
	recoverSteps := int64(port.Stats.Steps - start)
	f.apply(f.rt.Proc(0), firstMapBatch())
	total := int64(port.Stats.Steps - start)
	want := maps.Clone(f.want)
	for _, op := range firstMapBatch() {
		want[op.K] = op.V
	}
	if got := f.m.Dump(port); !maps.Equal(got, want) {
		t.Fatalf("uninterrupted recovery: contents %v, want %v", got, want)
	}

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for n := int64(1); n <= total; n += stride {
		f := newRecoverFixture(t, seed)
		crashed := false
		f.rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) {
				port := p.Mem()
				if !p.Crashed() {
					p.ArmCrashAfter(n)
					f.m.Recover(port)
					f.apply(p, firstMapBatch())
					p.Disarm()
					return
				}
				crashed = true
				f.m.Recover(port)
				before := port.Stats
				f.m.Recover(port)
				if d := port.Stats.Sub(before); d.Writes != 0 || d.CASes != 0 {
					t.Errorf("crash after %d steps (recovery is %d): Recover after the rerun wrote %d words, %d CASes",
						n, recoverSteps, d.Writes, d.CASes)
				}
				f.apply(p, firstMapBatch())
			}
		})
		if !crashed {
			t.Fatalf("n=%d: no crash within the %d-step recovery", n, total)
		}
		obs := f.rt.Mem().NewPort()
		if got := f.m.Dump(obs); !maps.Equal(got, want) {
			t.Fatalf("n=%d: contents %v, want %v", n, got, want)
		}
		f.m.Recover(obs) // panics on a slot backing two objects
	}
}
