package harness

import (
	"delayfree/internal/capsule"
	"delayfree/internal/logqueue"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Recovery-latency probes (experiment E6): how many memory operations
// each scheme needs to recover a process after a crash, as a function
// of structure size. The paper's claim: LogQueue recovery traverses the
// entire queue, while the transformations reload one capsule and query
// one recoverable CAS — constant, plus an O(P) announcement scan when
// using the Attiya CAS. Registered as workload.RecoveryProbes; the
// study itself (workload.RecoveryStudy) iterates whatever is
// registered.
//
// The pmap probes measure the other kind of recovery: the full-system
// Map.Recover that rebuilds the writable-CAS slot pools. It reads every
// Ptr, status and announcement word once, so its reads grow with the
// table; it writes only the status words whose value changed, so its
// writes track the slots the last epoch moved, not the table size.

func init() {
	workload.RegisterRecoveryProbe(workload.RecoveryProbe{
		Name: "logqueue", Steps: logQueueRecoverySteps,
	})
	workload.RegisterRecoveryProbe(workload.RecoveryProbe{
		Name: "capsule+rcas", Steps: capsuleRecoverySteps,
	})
	workload.RegisterRecoveryProbe(workload.RecoveryProbe{
		Name: "pmap reads", Steps: func(n uint32) uint64 { return mapRecoveryStats(n).Reads },
	})
	workload.RegisterRecoveryProbe(workload.RecoveryProbe{
		Name: "pmap writes", Steps: func(n uint32) uint64 { return mapRecoveryStats(n).Writes },
	})
}

// mapRecoveryStats builds a two-process map of n buckets (at least 8)
// with the group-commit tier, recovers it once — the steady state after
// any earlier crash — applies a fixed batch of mapRecoveryPuts puts over
// four keys, crashes the whole system, and returns the memory
// operations of the Map.Recover that follows.
func mapRecoveryStats(n uint32) pmem.Stats {
	const P, window, mapRecoveryPuts = 2, 64, 64
	buckets := max(int(n), 8)
	mem := pmem.New(pmem.Config{
		Words:   pmap.BatchWords(buckets, 1, P, 1, 0, window) + P*capsule.ProcWords + 1<<13,
		Mode:    pmem.Private,
		Checked: true,
	})
	rt := proc.NewRuntime(mem, P)
	m := pmap.New(pmap.Config{Mem: mem, P: P, Buckets: buckets, Opt: true,
		BatchCombiners: 1, BatchWindow: window})
	m.Init(mem.NewPort(), nil)
	m.Bind(rt)
	reg := capsule.NewRegistry()
	m.Register(reg)
	ba := pmap.NewBatchApplier(m)
	var ops []pmap.BatchOp
	for i := uint64(0); i < mapRecoveryPuts; i++ {
		ops = append(ops, pmap.BatchOp{K: 1 + i%4, V: i})
	}
	rid := reg.Register("recovery-probe-batch", true, func(c *capsule.Ctx) {
		ba.Apply(c, ops)
		c.Done()
	})
	bases := capsule.AllocProcAreas(mem, P)
	port := rt.Proc(0).Mem()
	capsule.InstallIdle(port, bases[0], reg, rid)
	m.Recover(port)
	capsule.NewMachine(rt.Proc(0), reg, bases[0]).Invoke(rid, 0)
	ba.Close(0)
	rt.CrashSystem()
	before := port.Stats
	m.Recover(port)
	return port.Stats.Sub(before)
}

// logQueueRecoverySteps seeds a LogQueue with n nodes, announces an
// enqueue that never linked (the worst but common case: the crash hit
// between announce and link) and counts the memory operations Recover
// performs.
func logQueueRecoverySteps(n uint32) uint64 {
	mem := pmem.New(pmem.Config{Words: uint64(n+1024) * pmem.WordsPerLine * 2})
	rt := proc.NewRuntime(mem, 1)
	arena := qnode.NewArena(mem, n+64)
	port := rt.Proc(0).Mem()
	q := logqueue.New(mem, port, arena, 1, 1)
	if n > 0 {
		q.Seed(port, 2, n, func(i uint32) uint64 { return uint64(i) })
	}
	lo, hi := arena.Range(0, 1, n+2)
	h := q.NewHandle(port, 0, lo, hi)
	h.AnnouncePendingEnqueue()
	before := port.Stats.Steps
	q.Recover(port, 0)
	return port.Stats.Steps - before
}

// capsuleRecoverySteps seeds a Normalized transformed queue with n
// nodes, crashes a process mid-operation, and counts the memory
// operations of the capsule reload plus the recoverable-CAS recovery on
// the first re-executed capsule — everything the process needs before
// it can continue.
func capsuleRecoverySteps(n uint32) uint64 {
	mem := pmem.New(pmem.Config{
		Words:   uint64(n+4096)*pmem.WordsPerLine*2 + capsule.ProcWords + 1<<14,
		Mode:    pmem.Private,
		Checked: true,
	})
	rt := proc.NewRuntime(mem, 1)
	arena := qnode.NewArena(mem, n+1024)
	space := rcas.NewSpace(mem, 1)
	q := pqueue.NewNormalized(pqueue.Config{Mem: mem, Space: space, Arena: arena, P: 1})
	reg := capsule.NewRegistry()
	q.Register(reg)
	bases := capsule.AllocProcAreas(mem, 1)
	setup := rt.Proc(0).Mem()
	q.Init(setup, pqueue.DummyNode+n)
	if n > 0 {
		q.Seed(setup, pqueue.DummyNode+1, n, func(i uint32) uint64 { return uint64(i) })
	}
	drv := pqueue.RegisterPairsDriver(reg, q)
	pqueue.InstallDriver(rt, reg, drv, bases, 4)
	// Crash mid-run, then measure the steps from restart until the
	// machine has executed its first post-crash capsule.
	rt.Proc(0).ArmCrashAfter(120)
	var recoverySteps uint64
	measured := false
	rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			port := p.Mem()
			if p.PeekCrashed() && !measured {
				measured = true
				before := port.Stats.Steps
				m := capsule.NewMachine(p, reg, bases[i])
				m.LoadState() // the reload a restart performs
				recoverySteps = port.Stats.Steps - before
				// Add the recoverable-CAS recovery the first capsule
				// would run (constant for Algorithm 1).
				before = port.Stats.Steps
				space.CheckRecovery(port, q.HeadAddr(), 1, 0)
				recoverySteps += port.Stats.Steps - before
			}
			capsule.NewMachine(p, reg, bases[i]).Run()
		}
	})
	return recoverySteps
}
