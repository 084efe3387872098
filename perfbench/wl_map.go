package main

import (
	"fmt"
	"math/rand"
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/ingress"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// map-ingest: one producer runs a 50/50 mix of inline Gets (the
// read-only fast lane, through Machine.Invoke) and writes published with
// completion tokens to one group-commit combiner over
// pmap.NewBatchApplier. Writes are puts and deletes 2:1; keys are
// Zipf(s = 1.1) over mapKeys keys in a table of twice as many buckets,
// pre-filled with every key.
var mapIngest = &workload{name: "map-ingest", producers: 1, combiner: 1, round: mapRound}

const (
	mapKeys      = 65536
	mapBuckets   = 2 * mapKeys
	mapZipfS     = 1.1
	mapReadPct   = 50
	batchWin     = 2048 // harness batch-window default
	mapRoundOps  = 1 << 19
	mapPutPerDel = 2
)

// mapOp is one generated map operation.
type mapOp struct {
	k    uint64
	v    uint64 // put value
	read bool
	del  bool
}

// mapOps generates a round's operations from the seed. Put values are
// unique within the round: op i puts i+1.
func mapOps(rng *rand.Rand, n int) []mapOp {
	z := rand.NewZipf(rng, mapZipfS, 1, mapKeys-1)
	ops := make([]mapOp, n)
	writes := 0
	for i := range ops {
		o := mapOp{k: z.Uint64() + 1}
		if rng.Intn(100) < mapReadPct {
			o.read = true
		} else {
			o.del = writes%(mapPutPerDel+1) == mapPutPerDel
			if !o.del {
				o.v = uint64(i) + 1
			}
			writes++
		}
		ops[i] = o
	}
	return ops
}

// mapSystem is one set-up map with its group-commit combiner wiring.
type mapSystem struct {
	mem   *pmem.Memory
	rt    *proc.Runtime
	m     *pmap.Map
	ba    *pmap.BatchApplier
	pool  *ingress.Pool
	reg   *capsule.Registry
	bases []pmem.Addr
	setup *pmem.Port
}

// newMapSystem builds the map for P processes (producers first, the
// combiner last) in the given memory mode, pre-filled with k → k.
func newMapSystem(P int, checked bool) *mapSystem {
	mode := pmem.Config{
		Words: pmap.BatchWords(mapBuckets, 1, P, 1, 0, batchWin) +
			uint64(P)*capsule.ProcWords + 1<<16,
		Mode:       pmem.Shared,
		Checked:    checked,
		FlushDelay: flushDelay,
		FenceDelay: fenceDelay,
	}
	s := &mapSystem{mem: pmem.New(mode)}
	s.rt = proc.NewRuntime(s.mem, P)
	initial := make(map[uint64]uint64, mapKeys)
	for k := uint64(1); k <= mapKeys; k++ {
		initial[k] = k
	}
	s.m = pmap.New(pmap.Config{
		Mem: s.mem, P: P, Buckets: mapBuckets, Shards: 1, Opt: true, Durable: true,
		BatchCombiners: 1, BatchWindow: batchWin,
	})
	s.setup = s.mem.NewPort()
	s.m.Init(s.setup, initial)
	s.m.Bind(s.rt)
	s.ba = pmap.NewBatchApplier(s.m)
	s.pool = ingress.NewPool(1, ringCap, batchMax, P-1)
	s.reg = capsule.NewRegistry()
	s.m.Register(s.reg)
	s.bases = capsule.AllocProcAreas(s.mem, P)
	return s
}

// combinerHooks are the applier and close closures handed to
// RegisterGroupCombiner, wrapped for traced rounds (pr non-nil); w is
// the producer's completion window, nil when no producer exposes one.
func (s *mapSystem) combinerHooks(pr *probe, log *spanLog, w *window) (ingress.GroupApply, func(*capsule.Ctx)) {
	ops := make([]pmap.BatchOp, batchMax)
	apply := func(c *capsule.Ctx, batch []ingress.Record) bool {
		for i := range batch {
			ops[i] = pmap.BatchOp{Del: batch[i].Op == ingress.OpDelete, K: batch[i].A, V: batch[i].B}
		}
		pid := c.P().ID()
		if pr == nil {
			if !s.ba.Apply(c, ops[:len(batch)]) {
				panic("perfbench: map batch rejected; the table is sized never to fill")
			}
			return s.ba.Deferred(pid)
		}
		t0, s0, mf0 := now(), c.Mem().Stats, s.ba.MiniFences(pid)
		if !s.ba.Apply(c, ops[:len(batch)]) {
			panic("perfbench: map batch rejected; the table is sized never to fill")
		}
		deferred := s.ba.Deferred(pid)
		d := c.Mem().Stats.Sub(s0)
		noteApply(pr, log, w, batch, t0, now(), d)
		// One install fence per batch; any further fence closed the
		// window inside the apply (full window or recycle-guard
		// mini-fence).
		if d.Fences > 1 {
			pr.autoCloses += d.Fences - 1
		}
		pr.miniFences += s.ba.MiniFences(pid) - mf0
		if deferred {
			pr.deferred++
		}
		return deferred
	}
	closeWin := func(c *capsule.Ctx) {
		if pr == nil {
			s.ba.Close(c.P().ID())
			return
		}
		t0, s0 := now(), c.Mem().Stats
		s.ba.Close(c.P().ID())
		t1 := now()
		pr.closes++
		pr.closeNs += t1 - t0
		pr.closeStats.Add(c.Mem().Stats.Sub(s0))
		log.add(spClose, 0, 0, 0, t0, t1)
	}
	return apply, closeWin
}

func mapRound(r *run, n int) error {
	const P = 2 // producer 0, combiner 1
	ops := mapOps(roundRand(r.seed, n), mapRoundOps)
	t0 := time.Now()
	s := newMapSystem(P, false)
	w := new(window)
	apply, closeWin := s.combinerHooks(r.probe(1, n), r.spanLog(1, n), w)
	comb := ingress.RegisterGroupCombiner(s.reg, "combine-m", s.pool, 0, apply, closeWin)
	capsule.Install(s.rt.Proc(1).Mem(), s.bases[1], s.reg, comb)
	capsule.InstallIdle(s.rt.Proc(0).Mem(), s.bases[0], s.reg, s.m.Routine())
	setupDur := time.Since(t0)

	// The producer's shadow of acknowledged writes, and how many of
	// each key's writes are still in flight (a Get of such a key may
	// see either side of them).
	shadow := make([]uint64, mapKeys+1) // value+1, 0 = absent
	for k := 1; k <= mapKeys; k++ {
		shadow[k] = uint64(k) + 1
	}
	pending := make([]uint16, mapKeys+1)
	opOf := make([]int32, inFlight)
	var readBad uint64
	var readWhy string

	mallocs0 := r.measureStart()
	stats0 := s.rt.TotalStats()
	start := time.Now()
	s.rt.RunToCompletion(func(i int) proc.Program {
		if i == 1 {
			return func(p *proc.Proc) { capsule.NewMachine(p, s.reg, s.bases[i]).Run() }
		}
		return func(p *proc.Proc) {
			pr, log := r.probe(0, n), r.spanLog(0, n)
			pd := &producer{ring: s.pool.Shard(0).Ring, w: w, lat: &r.cur.write, spin: func() { p.Step() },
				round: uint64(n), pr: pr, log: log}
			pd.onAck = func(tok uint64) {
				o := ops[opOf[slotOf(tok)]]
				pending[o.k]--
				if o.del {
					shadow[o.k] = 0
				} else {
					shadow[o.k] = o.v + 1
				}
			}
			mach := capsule.NewMachine(p, s.reg, s.bases[0])
			rid, get := s.m.Routine(), s.m.GetEntry()
			for i, o := range ops {
				if o.read {
					t0 := now()
					res := mach.Invoke(rid, get, o.k)
					t1 := now()
					r.cur.read.record(t1 - t0)
					if pr != nil {
						pr.gets++
						pr.getNs += t1 - t0
						if uint64(i)%sampleEvery == 0 {
							log.add(spInvoke, 0, 0, uint64(n)<<32|uint64(i)|1<<31, t0, t1)
						}
					}
					if pending[o.k] == 0 && readResult(res) != shadow[o.k] {
						readBad++
						if readWhy == "" {
							readWhy = fmt.Sprintf("Get(%d) returned %v, acknowledged state %d", o.k, res, shadow[o.k])
						}
					}
					continue
				}
				rec := ingress.Record{Op: ingress.OpPut, A: o.k, B: o.v}
				if o.del {
					rec.Op = ingress.OpDelete
				}
				pending[o.k]++
				if pd.pub-pd.acked == inFlight {
					pd.waitOldest() // frees the slot opOf is about to reuse
				}
				opOf[slotOf(pd.pub+1)] = int32(i)
				pd.publish(rec)
			}
			pd.finish()
			s.pool.MarkDone(0)
		}
	})
	measured := time.Since(start)
	st := s.rt.TotalStats().Sub(stats0)

	if readBad > 0 {
		r.fail(readBad, "round %d: %s", n, readWhy)
	}
	if bad, why := checkMap(s.m.Dump(s.setup), shadow); bad > 0 {
		r.fail(bad, "round %d: %s", n, why)
	}
	r.finishRound(n, setupDur, measured, mapRoundOps, mapRoundOps, st, mallocs0)
	return nil
}

// readResult encodes a Get's (found, value) result like the shadow:
// value+1, or 0 when absent.
func readResult(res []uint64) uint64 {
	if len(res) < 2 || res[0] == 0 {
		return 0
	}
	return res[1] + 1
}

// checkMap compares the map's final contents with the shadow of
// acknowledged writes (shadow[k] = value+1, 0 = absent). It returns the
// number of keys whose state differs and a description of the first.
func checkMap(dump map[uint64]uint64, shadow []uint64) (bad uint64, why string) {
	for k := 1; k < len(shadow); k++ {
		v, ok := dump[uint64(k)]
		got := uint64(0)
		if ok {
			got = v + 1
		}
		if got != shadow[k] {
			bad++
			if why == "" {
				why = fmt.Sprintf("key %d holds %d (present %v), acknowledged state %d", k, v, ok, shadow[k])
			}
		}
	}
	for k := range dump {
		if k == 0 || k >= uint64(len(shadow)) {
			bad++
			if why == "" {
				why = fmt.Sprintf("map holds key %d, which no op wrote", k)
			}
		}
	}
	return bad, why
}
