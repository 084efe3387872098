package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/ingress"
	"delayfree/internal/proc"
)

// map-recover: the map-ingest key mix and table, written by one
// producer on ingress.RegisterProducerDriver (the exactly-once-or-never
// driver) through one group-commit combiner. Each round injects one
// full-system crash at a seeded instrumented step of the combiner. On
// restart the combiner bumps its shard epoch and runs Map.Recover before
// resuming, as pmap's batched stresser does.
//
// The memory runs in Checked mode: pmem materializes a crash (drops the
// unflushed lines) only there, and Memory.Crash refuses fast mode. The
// driver's routine carries writes only, and with one producer and one
// combiner on the two cores there is no process left for readers, so
// this workload has no Gets.
var mapRecover = &workload{name: "map-recover", producers: 1, combiner: 1, round: recoverRound}

const (
	recoverWindow = 8 // driver attempts per persisted window, as the stressers use
	// Each round injects one full-system crash at a seeded combiner
	// step in [recoverCrashLo, recoverCrashHi), then runs
	// recoverAfter more attempts so the recovery is measured up to
	// the combiner's first applied batch and beyond.
	recoverCrashLo = 600_000
	recoverCrashHi = 700_000
	recoverAfter   = 500
	putTag         = 1 << 40 // put values are putTag|attempt, above every initial value
)

// recoverOp is attempt k's write; keys and kinds come from the seed.
type recoverOp struct {
	k   uint64
	del bool
}

func recoverOps(rng *rand.Rand, n int) []recoverOp {
	z := rand.NewZipf(rng, mapZipfS, 1, mapKeys-1)
	ops := make([]recoverOp, n)
	for i := range ops {
		ops[i] = recoverOp{k: z.Uint64() + 1, del: i%(mapPutPerDel+1) == mapPutPerDel}
	}
	return ops
}

func recoverRound(r *run, n int) error {
	const P = 2 // producer 0, combiner 1
	rng := roundRand(r.seed, n)
	ops := recoverOps(rng, 1<<16)
	crashAfter := recoverCrashLo + rng.Int63n(recoverCrashHi-recoverCrashLo)
	opOf := func(k uint64) recoverOp { return ops[k%uint64(len(ops))] }

	t0 := time.Now()
	s := newMapSystem(P, true)
	s.rt.SystemCrashMode = true
	sh := s.pool.Shard(0)

	// Host-side bookkeeping, each slice written by one process.
	pubAt := make([]int64, 0, 1<<13)        // producer: attempt k published at
	doneOf := make([]*recoverAck, 0, 1<<13) // combiner: attempt k's completion slot
	var crashAt, recoveredAt int64          // crash completed; first batch applied after it
	firstAfter := int64(-1)                 // first attempt made after the crash
	s.rt.OnSystemCrash = func(uint64) {
		s.pool.Reset()
		if crashAt == 0 { // not the final crash the durability check injects
			crashAt = now()
		}
	}
	cpr, clog := r.probe(1, n), r.spanLog(1, n)
	apply, closeWin := s.combinerHooks(cpr, clog, nil)
	var pending []*recoverAck // applied, not yet acknowledged
	ackAll := func() {
		t := now()
		for _, a := range pending {
			a.at = t
		}
		pending = pending[:0]
	}
	comb := ingress.RegisterGroupCombiner(s.reg, "combine-r", s.pool, 0,
		func(c *capsule.Ctx, batch []ingress.Record) bool {
			for i := range batch {
				k := batch[i].Token - 1
				for uint64(len(doneOf)) <= k {
					doneOf = append(doneOf, nil)
				}
				a := &recoverAck{done: batch[i].Done, token: batch[i].Token}
				doneOf[k] = a
				pending = append(pending, a)
			}
			deferred := apply(c, batch)
			if crashAt != 0 && recoveredAt == 0 {
				recoveredAt = now()
			}
			if !deferred {
				ackAll()
			}
			return deferred
		},
		func(c *capsule.Ctx) {
			closeWin(c)
			ackAll()
		})
	capsule.Install(s.rt.Proc(1).Mem(), s.bases[1], s.reg, comb)
	keepGoing := func() bool {
		return firstAfter < 0 || int64(len(pubAt))-firstAfter < recoverAfter
	}
	drv := ingress.RegisterProducerDriver(s.reg, "produce-r", s.pool, 0, 1, recoverWindow, keepGoing,
		func(k uint64) ingress.Attempt {
			for uint64(len(pubAt)) <= k {
				pubAt = append(pubAt, 0)
			}
			pubAt[k] = now()
			if firstAfter < 0 && s.rt.SystemCrashes() > 0 {
				firstAfter = int64(k)
			}
			o := opOf(k)
			if o.del {
				return ingress.Attempt{Rec: ingress.Record{Op: ingress.OpDelete, A: o.k}}
			}
			return ingress.Attempt{Rec: ingress.Record{Op: ingress.OpPut, A: o.k, B: putTag | k}}
		}, nil)
	capsule.Install(s.rt.Proc(0).Mem(), s.bases[0], s.reg, drv)
	s.rt.Proc(1).ArmCrashAfter(crashAfter)
	setupDur := time.Since(t0)

	mallocs0 := r.measureStart()
	stats0 := s.rt.TotalStats()
	start := time.Now()
	s.rt.RunToCompletion(func(i int) proc.Program {
		if i == 1 {
			return func(p *proc.Proc) {
				if p.PeekCrashed() {
					sh.Epoch.Add(1)
					pending = pending[:0] // the combiner dropped its held records with the crash
					t := now()
					s.m.Recover(p.Mem())
					if cpr != nil {
						d := now() - t
						cpr.recoverNs = append(cpr.recoverNs, float64(d))
						clog.add(spRecover, 0, 0, 0, t, t+d)
					}
				}
				capsule.NewMachine(p, s.reg, s.bases[i]).Run()
			}
		}
		return func(p *proc.Proc) {
			capsule.NewMachine(p, s.reg, s.bases[i]).Run()
			s.pool.MarkDone(i)
		}
	})
	measured := time.Since(start)
	for i := 0; i < P; i++ {
		s.rt.Proc(i).Disarm()
	}
	st := s.rt.TotalStats().Sub(stats0)
	nCrash := s.rt.SystemCrashes()
	s.rt.CrashSystem()

	var restarts uint64
	for i := 0; i < P; i++ {
		restarts += s.rt.Proc(i).Restarts()
	}
	depth, pc, locals := capsule.NewMachine(s.rt.Proc(0), s.reg, s.bases[0]).LoadState()
	if depth != 0 || pc != capsule.PCDone {
		return fmt.Errorf("round %d: producer did not finish (depth %d, pc %d)", n, depth, pc)
	}
	if cpr != nil {
		cpr.crashes += nCrash
		cpr.restarts += restarts
		cpr.abandoned += locals[ingress.SlotAband]
	}
	attempted := uint64(len(pubAt))
	acked := make([]bool, attempted)
	var nAcked uint64
	for k := range acked {
		if k < len(doneOf) && doneOf[k] != nil && doneOf[k].done.Load() == doneOf[k].token {
			acked[k] = true
			nAcked++
			// An op published while the system recovers waits out the
			// recovery, which recovery_* reports; write_ack_* is the
			// latency outside it.
			if a := doneOf[k].at; a != 0 && (pubAt[k] < crashAt || pubAt[k] > recoveredAt) {
				r.cur.write.record(a - pubAt[k])
			}
		}
	}
	if recoveredAt != 0 {
		r.recovery = append(r.recovery, float64(recoveredAt-crashAt)/1e3)
	}
	if bad, why := checkRecovered(s.m.Dump(s.setup), mapKeys, func(k uint64) (uint64, bool) {
		o := opOf(k)
		return o.k, o.del
	}, acked); bad > 0 {
		r.fail(bad, "round %d: %s", n, why)
	}
	r.finishRound(n, setupDur, measured, attempted, nAcked, st, mallocs0)
	return nil
}

// recoverAck tracks one applied record: its completion slot and token,
// and when the combiner acknowledged it (0 until then).
type recoverAck struct {
	done  *atomic.Uint64
	token uint64
	at    int64
}

// checkRecovered checks the map after the final crash; it was
// pre-filled with k → k for keys 1..keys. Attempt k wrote
// key op(k) (a delete, or a put of putTag|k); acked[k] reports whether
// the combiner acknowledged it as durable. For every key, the recovered
// state must be the effect of its last acknowledged write or of a later
// attempted write on that key; a key with no acknowledged write may
// also keep its initial value (the key itself). It returns the number
// of keys in a state no such write explains, and the first of them.
func checkRecovered(dump map[uint64]uint64, keys uint64, op func(k uint64) (key uint64, del bool), acked []bool) (bad uint64, why string) {
	lastAcked := map[uint64]int{}
	byKey := map[uint64][]int{}
	for k := range acked {
		key, _ := op(uint64(k))
		byKey[key] = append(byKey[key], k)
		if acked[k] {
			lastAcked[key] = k
		}
	}
	note := func(format string, args ...any) {
		bad++
		if why == "" {
			why = fmt.Sprintf(format, args...)
		}
	}
	for key := uint64(1); key <= keys; key++ {
		v, present := dump[key]
		from, ok := lastAcked[key]
		if !ok && present && v == key {
			continue // initial value, never overwritten durably
		}
		if !ok {
			from = -1
		}
		explained := false
		for _, k := range byKey[key] {
			if k < from {
				continue
			}
			_, del := op(uint64(k))
			if (del && !present) || (!del && present && v == putTag|uint64(k)) {
				explained = true
				break
			}
		}
		if !explained {
			if present {
				note("key %d recovered %#x, which no acknowledged-or-later write on it explains", key, v)
			} else {
				note("key %d recovered absent, which no acknowledged-or-later write on it explains", key)
			}
		}
	}
	for key := range dump {
		if key == 0 || key > keys {
			note("map holds key %d, which no op wrote", key)
		}
	}
	return bad, why
}
