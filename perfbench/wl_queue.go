package main

import (
	"fmt"
	"math/rand"
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/ingress"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// queue-ingest: one producer keeps inFlight durable enqueues in flight
// through one ingress shard; one combiner applies them in batches of up
// to batchMax through pqueue.BatchEnqueuer on a packed pool, over a
// queue pre-seeded with the harness's seed-nodes default.
var queueIngest = &workload{name: "queue-ingest", producers: 1, combiner: 1, round: queueRound}

const (
	batchMax       = 64     // harness batch-max default
	ringCap        = 256    // harness ring size for batch-max 64
	queueSeedNodes = 200000 // harness seed-nodes default
	queueRoundOps  = 1 << 20
	packedSegNodes = 4096
)

// roundRand is the seeded source of round n's inputs.
func roundRand(seed int64, n int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
}

// queueValue is the k-th enqueued value of a round: the low 32 bits
// name its position, the high bits are drawn from the seed.
func queueValue(rng *rand.Rand, k int) uint64 {
	return uint64(rng.Uint32())<<32 | uint64(k+1)
}

func queueRound(r *run, n int) error {
	const P = 2 // producer 0, combiner 1
	t0 := time.Now()
	nseg := uint32((queueRoundOps+batchMax+1024)/packedSegNodes) + 2
	arenaCap := uint32(queueSeedNodes + 8)
	mem := pmem.New(pmem.Config{
		Words: uint64(arenaCap+8)*pmem.WordsPerLine + qnode.PackedWords(packedSegNodes, nseg) +
			P*capsule.ProcWords + 1<<16,
		Mode:       pmem.Shared,
		FlushDelay: flushDelay,
		FenceDelay: fenceDelay,
	})
	rt := proc.NewRuntime(mem, P)
	arena := qnode.NewArena(mem, arenaCap)
	q := pqueue.NewGeneral(pqueue.Config{
		Mem: mem, Space: rcas.NewSpace(mem, P), Arena: arena, P: P, Durable: true, Opt: true,
	})
	setup := mem.NewPort()
	q.Init(setup, pqueue.DummyNode+queueSeedNodes)
	q.Seed(setup, pqueue.DummyNode+1, queueSeedNodes, func(i uint32) uint64 { return uint64(i) })
	pool := ingress.NewPool(1, ringCap, batchMax, 1)
	reg := capsule.NewRegistry()
	bases := capsule.AllocProcAreas(mem, P)
	enqueue := pqueue.BatchEnqueuer(q, qnode.NewPackedPool(mem, arena, packedSegNodes, nseg, P))
	w := new(window)
	vals := make([]uint64, batchMax)
	cpr, clog := r.probe(1, n), r.spanLog(1, n)
	comb := ingress.RegisterCombiner(reg, "combine-q", pool, 0, func(c *capsule.Ctx, batch []ingress.Record) {
		for i := range batch {
			vals[i] = batch[i].A
		}
		if cpr == nil {
			enqueue(c, vals[:len(batch)])
			return
		}
		a, s0 := now(), c.Mem().Stats
		enqueue(c, vals[:len(batch)])
		noteApply(cpr, clog, w, batch, a, now(), c.Mem().Stats.Sub(s0))
	})
	capsule.Install(rt.Proc(1).Mem(), bases[1], reg, comb)
	setupDur := time.Since(t0)

	mallocs0 := r.measureStart()
	stats0 := rt.TotalStats()
	start := time.Now()
	rt.RunToCompletion(func(i int) proc.Program {
		if i == 1 {
			return func(p *proc.Proc) { capsule.NewMachine(p, reg, bases[i]).Run() }
		}
		return func(p *proc.Proc) {
			pd := &producer{ring: pool.Shard(0).Ring, w: w, lat: &r.cur.write, spin: func() { p.Step() },
				round: uint64(n), pr: r.probe(0, n), log: r.spanLog(0, n)}
			rng := roundRand(r.seed, n)
			for k := 0; k < queueRoundOps; k++ {
				pd.publish(ingress.Record{Op: ingress.OpEnqueue, A: queueValue(rng, k)})
			}
			pd.finish()
			pool.MarkDone(0)
		}
	})
	measured := time.Since(start)
	st := rt.TotalStats().Sub(stats0)

	rng := roundRand(r.seed, n)
	want := make([]uint64, queueRoundOps)
	for k := range want {
		want[k] = queueValue(rng, k)
	}
	if bad, why := checkQueue(q.Drain(setup), queueSeedNodes, want); bad > 0 {
		r.fail(bad, "round %d: %s", n, why)
	}
	r.finishRound(n, setupDur, measured, queueRoundOps, queueRoundOps, st, mallocs0)
	return nil
}

// checkQueue checks a drained queue: the seeded values 0..seeded-1
// first, then every acknowledged value of want exactly once and in
// publish order (want[k] carries k+1 in its low 32 bits). It returns
// the number of acknowledged ops missing, repeated, out of order or
// replaced, and a description of the first problem.
func checkQueue(got []uint64, seeded int, want []uint64) (bad uint64, why string) {
	note := func(format string, args ...any) {
		bad++
		if why == "" {
			why = fmt.Sprintf(format, args...)
		}
	}
	if len(got) < seeded {
		note("queue holds %d values, fewer than the %d seeded", len(got), seeded)
		seeded = len(got)
	}
	for i := 0; i < seeded; i++ {
		if got[i] != uint64(i) {
			note("seeded position %d holds %#x", i, got[i])
		}
	}
	seen := make([]bool, len(want))
	last := -1
	for _, v := range got[seeded:] {
		k := int(v&0xffffffff) - 1
		switch {
		case k < 0 || k >= len(want) || want[k] != v:
			note("queue holds %#x, which was never enqueued", v)
		case seen[k]:
			note("value %#x (op %d) dequeued twice", v, k)
		default:
			seen[k] = true
			if k < last {
				note("op %d drained after op %d, out of publish order", k, last)
			}
			last = k
		}
	}
	for k, ok := range seen {
		if !ok {
			note("acknowledged op %d (value %#x) is missing", k, want[k])
		}
	}
	return bad, why
}
