package main

import (
	"fmt"
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/pstack"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// stack-direct: stackProcs processes each run push/pop pairs through
// Machine.Invoke on pstack with Opt and Durable on, over a stack
// pre-seeded with the harness's stack-seed default. Each pair is
// push-then-pop or pop-then-push by a seeded coin.
var stackDirect = &workload{name: "stack-direct", workers: stackProcs, round: stackRound}

const (
	stackProcs    = 2     // one per core of the 2-core host the load is sized for
	stackSeed     = 50000 // harness stack-seed default
	stackRoundOps = 1 << 15
	stackPairs    = stackRoundOps / 2 / stackProcs // per process
)

// Stack values: seeded nodes hold their index; a pushed value carries
// the pushing process and the pair index, so every value is distinct.
const pushTag = 1 << 62

func pushValue(pid, k int) uint64 { return pushTag | uint64(pid)<<32 | uint64(k) }

func stackRound(r *run, n int) error {
	const P = stackProcs
	rng := roundRand(r.seed, n)
	popFirst := make([][]bool, P)
	for pid := range popFirst {
		popFirst[pid] = make([]bool, stackPairs)
		for k := range popFirst[pid] {
			popFirst[pid][k] = rng.Intn(2) == 0
		}
	}
	t0 := time.Now()
	arenaCap := uint32(stackSeed + 8192*P)
	mem := pmem.New(pmem.Config{
		Words:      uint64(arenaCap+8)*pmem.WordsPerLine + P*capsule.ProcWords + 1<<16,
		Mode:       pmem.Shared,
		FlushDelay: flushDelay,
		FenceDelay: fenceDelay,
	})
	rt := proc.NewRuntime(mem, P)
	s := pstack.New(pstack.Config{
		Mem: mem, Space: rcas.NewSpace(mem, P), Arena: qnode.NewArena(mem, arenaCap), P: P,
		Durable: true, Opt: true,
	})
	reg := capsule.NewRegistry()
	s.Register(reg)
	bases := capsule.AllocProcAreas(mem, P)
	setup := mem.NewPort()
	s.Init(setup, stackSeed)
	s.Seed(setup, 1, stackSeed, func(i uint32) uint64 { return uint64(i) })
	for i := 0; i < P; i++ {
		capsule.InstallIdle(rt.Proc(i).Mem(), bases[i], reg, s.Routine())
	}
	setupDur := time.Since(t0)

	lat := make([]hist, P)
	popped := make([][]uint64, P)
	mallocs0 := r.measureStart()
	stats0 := rt.TotalStats()
	start := time.Now()
	rt.RunToCompletion(func(pid int) proc.Program {
		return func(p *proc.Proc) {
			pr, log := r.probe(pid, n), r.spanLog(pid, n)
			h := &lat[pid]
			out := make([]uint64, 0, stackPairs)
			m := capsule.NewMachine(p, reg, bases[pid])
			rid := s.Routine()
			push := func(k int) {
				t0 := now()
				m.Invoke(rid, s.PushEntry(), pushValue(pid, k))
				t1 := now()
				h.record(t1 - t0)
				if pr != nil {
					pr.pushes++
					pr.pushNs += t1 - t0
					if k%sampleEvery == 0 {
						log.add(spInvoke, 0, 0, uint64(n)<<32|uint64(pid)<<24|uint64(k)<<1, t0, t1)
					}
				}
			}
			pop := func(k int) {
				t0 := now()
				res := m.Invoke(rid, s.PopEntry())
				t1 := now()
				h.record(t1 - t0)
				ok := len(res) == 2 && res[0] != 0
				if ok {
					out = append(out, res[1])
				}
				if pr != nil {
					pr.pops++
					pr.popNs += t1 - t0
					if !ok {
						pr.emptyPops++
					}
					if k%sampleEvery == 0 {
						log.add(spInvoke, 0, 0, uint64(n)<<32|uint64(pid)<<24|uint64(k)<<1|1, t0, t1)
					}
				}
			}
			for k, pf := range popFirst[pid] {
				if pf {
					pop(k)
					push(k)
				} else {
					push(k)
					pop(k)
				}
			}
			popped[pid] = out
		}
	})
	measured := time.Since(start)
	st := rt.TotalStats().Sub(stats0)
	for i := range lat {
		r.cur.write.merge(&lat[i])
	}
	var all []uint64
	for _, o := range popped {
		all = append(all, o...)
	}
	if bad, why := checkStack(all, s.Drain(setup), stackSeed, P, stackPairs); bad > 0 {
		r.fail(bad, "round %d: %s", n, why)
	}
	r.finishRound(n, setupDur, measured, stackRoundOps, stackRoundOps, st, mallocs0)
	return nil
}

// checkStack checks conservation: the seeded values 0..seeded-1 plus
// every pushed value (pushValue(pid, k) for each process and pair)
// must equal the popped values plus the stack's remaining contents,
// with no value twice. It returns the number of values missing,
// repeated or never pushed, and a description of the first problem.
func checkStack(popped, remaining []uint64, seeded, procs, pairs int) (bad uint64, why string) {
	note := func(format string, args ...any) {
		bad++
		if why == "" {
			why = fmt.Sprintf(format, args...)
		}
	}
	seenSeed := make([]bool, seeded)
	seenPush := make([]bool, procs*pairs)
	for _, list := range [][]uint64{popped, remaining} {
		for _, v := range list {
			var seen *bool
			switch {
			case v < uint64(seeded):
				seen = &seenSeed[v]
			case v&pushTag != 0 && int(v>>32&0x3fffffff) < procs && int(v&0xffffffff) < pairs:
				seen = &seenPush[int(v>>32&0x3fffffff)*pairs+int(v&0xffffffff)]
			default:
				note("stack produced %#x, which was never pushed", v)
				continue
			}
			if *seen {
				note("value %#x popped or held twice", v)
			}
			*seen = true
		}
	}
	for i, ok := range seenSeed {
		if !ok {
			note("seeded value %d is lost", i)
		}
	}
	for i, ok := range seenPush {
		if !ok {
			note("pushed value %#x is lost", pushValue(i/pairs, i%pairs))
		}
	}
	return bad, why
}
