package main

import (
	"time"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// probe is one process's per-layer accumulator in the traced run. Each
// has a single writer, its process; the run reads them after the
// round's processes have all returned.
type probe struct {
	publishNs  int64
	publishes  uint64
	queueWait  int64 // publish end → apply start, summed over traced acks
	hold       int64 // apply end → ack observed
	tracedAcks uint64

	batches, batchOps uint64
	applyNs           int64
	applyStats        pmem.Stats
	deferred          uint64 // applies that left a group-commit window open
	autoCloses        uint64 // windows closed inside an apply
	closes            uint64 // windows closed by the combiner's idle close
	closeNs           int64
	closeStats        pmem.Stats
	miniFences        uint64

	pushNs, popNs, getNs int64
	pushes, pops, gets   uint64
	emptyPops            uint64

	recoverNs         []float64
	crashes, restarts uint64
	abandoned         uint64
}

func (r *run) total() probe {
	var t probe
	for _, p := range r.probes {
		t.publishNs += p.publishNs
		t.publishes += p.publishes
		t.queueWait += p.queueWait
		t.hold += p.hold
		t.tracedAcks += p.tracedAcks
		t.batches += p.batches
		t.batchOps += p.batchOps
		t.applyNs += p.applyNs
		t.applyStats.Add(p.applyStats)
		t.deferred += p.deferred
		t.autoCloses += p.autoCloses
		t.closes += p.closes
		t.closeNs += p.closeNs
		t.closeStats.Add(p.closeStats)
		t.miniFences += p.miniFences
		t.pushNs += p.pushNs
		t.popNs += p.popNs
		t.getNs += p.getNs
		t.pushes += p.pushes
		t.pops += p.pops
		t.gets += p.gets
		t.emptyPops += p.emptyPops
		t.recoverNs = append(t.recoverNs, p.recoverNs...)
		t.crashes += p.crashes
		t.restarts += p.restarts
		t.abandoned += p.abandoned
	}
	return t
}

func ratio[A, B int64 | uint64 | float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics computes every per-layer metric of the traced run.
// Metrics of a layer the workload does not reach read 0.
func (r *run) layerMetrics() map[string]metric {
	t := r.total()
	st := r.stats
	ops := r.completed
	procNs := float64(r.measured.Nanoseconds()) * float64(r.procs())
	c := r.calib
	stepsPerOp := ratio(st.Steps, ops)
	spin := float64(st.EffectiveFlushes())*(c.flushNs-c.stepNs) + float64(st.Fences)*(c.fenceNs-c.stepNs)
	m := map[string]metric{
		"proc.step_ns":              {c.stepNs, "ns"},
		"proc.steps_per_op":         {stepsPerOp, "count"},
		"proc.instr_share":          {ratio(float64(st.Steps)*c.stepNs, procNs), "share"},
		"pmem.flush_ns":             {c.flushNs, "ns"},
		"pmem.fence_ns":             {c.fenceNs, "ns"},
		"pmem.persist_spin_share":   {ratio(spin, procNs), "share"},
		"pmem.coalesced_per_op":     {ratio(st.CoalescedFlushes, ops), "count"},
		"pmem.lines_per_drain":      {ratio(st.LinesPersisted, st.Drains), "count"},
		"pmem.cas_per_op":           {ratio(st.CASes, ops), "count"},
		"pmem.reads_per_op":         {ratio(st.Reads, ops), "count"},
		"pmem.writes_per_op":        {ratio(st.Writes, ops), "count"},
		"capsule.boundaries_per_op": {ratio(st.Boundaries, ops), "count"},
		"capsule.elided_per_op":     {ratio(st.BoundariesElided, ops), "count"},
		"ingress.publish_ns":        {ratio(t.publishNs, t.publishes), "ns"},
		"ingress.queue_wait_us":     {ratio(t.queueWait, t.tracedAcks) / 1e3, "us"},
		"ingress.batch_size":        {ratio(t.batchOps, t.batches), "count"},
		"ingress.combiner_busy_share": {ratio(t.applyNs+t.closeNs,
			float64(r.tracedTime.Nanoseconds())*float64(r.w.combiner)), "share"},
		"ingress.hold_us":                    {ratio(t.hold, t.tracedAcks) / 1e3, "us"},
		"pqueue.apply_ns_per_op":             {0, "ns"},
		"pqueue.apply_eff_flushes_per_batch": {0, "count"},
		"pmap.apply_ns_per_op":               {0, "ns"},
		"pmap.close_us":                      {ratio(t.closeNs, t.closes) / 1e3, "us"},
		"pmap.closes_per_kop":                {1e3 * ratio(t.closes+t.autoCloses, t.batchOps), "count"},
		"pmap.close_eff_flushes":             {ratio(t.closeStats.EffectiveFlushes(), t.closes), "count"},
		"pmap.deferred_share":                {ratio(t.deferred, t.batches), "share"},
		"wcas.minifences_per_kop":            {1e3 * ratio(t.miniFences, t.batchOps), "count"},
		"pmap.get_ns":                        {ratio(t.getNs, t.gets), "ns"},
		"pstack.push_ns":                     {ratio(t.pushNs, t.pushes), "ns"},
		"pstack.pop_ns":                      {ratio(t.popNs, t.pops), "ns"},
		"pstack.cas_per_op":                  {0, "count"},
		"pstack.empty_pop_share":             {ratio(t.emptyPops, t.pops), "share"},
		"pmap.recover_us":                    {median(t.recoverNs) / 1e3, "us"},
		"proc.restarts_per_crash":            {ratio(t.restarts, t.crashes), "count"},
		"ingress.abandoned_per_crash":        {ratio(t.abandoned, t.crashes), "count"},
		"go.allocs_per_op":                   {ratio(r.mallocs, ops), "count"},
		"trace.overhead_share":               {0, "share"},
	}
	applyPerOp := ratio(t.applyNs, t.batchOps)
	switch r.w.name {
	case queueIngest.name:
		m["pqueue.apply_ns_per_op"] = metric{applyPerOp, "ns"}
		m["pqueue.apply_eff_flushes_per_batch"] = metric{ratio(t.applyStats.EffectiveFlushes(), t.batches), "count"}
	case mapIngest.name, mapRecover.name:
		m["pmap.apply_ns_per_op"] = metric{applyPerOp, "ns"}
	case stackDirect.name:
		m["pstack.cas_per_op"] = metric{ratio(st.CASes, ops), "count"}
	}
	if u := median(r.untracedM); u > 0 && len(r.tracedM) > 0 {
		m["trace.overhead_share"] = metric{1 - median(r.tracedM)/u, "share"}
	}
	var dropped uint64
	for _, l := range r.logs {
		dropped += l.dropped
	}
	m["trace.dropped_spans"] = metric{float64(dropped), "count"}
	return m
}

// selfTimeMs sums the recorded spans' self time per span name.
func (r *run) selfTimeMs() map[string]float64 {
	var all []span
	for _, l := range r.logs {
		all = append(all, l.spans...)
	}
	self := selfTimes(all)
	out := map[string]float64{}
	for i, ns := range self {
		if ns > 0 {
			out[spanNames[i]] = ns / 1e6
		}
	}
	return out
}

// calibration holds per-call costs timed at start-up on a private
// memory with the workloads' delays: one instrumented step with
// nothing armed, one Flush of a distinct line, one Fence.
type calibration struct {
	stepNs, flushNs, fenceNs float64
}

// calibrate times each call in batches after one untimed warm-up
// batch, and keeps the median batch, so a descheduling during one
// batch does not skew the figure.
func calibrate() calibration {
	mem := pmem.New(pmem.Config{Words: 1 << 12, Mode: pmem.Shared, FlushDelay: flushDelay, FenceDelay: fenceDelay})
	rt := proc.NewRuntime(mem, 1)
	p := rt.Proc(0)
	port := p.Mem()
	const reps, n, lines = 9, 1 << 14, 8
	base := mem.AllocLines(lines)
	perCall := func(calls int, body func()) float64 {
		v := make([]float64, reps)
		body()
		for i := range v {
			t0 := time.Now()
			body()
			v[i] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
		}
		return median(v)
	}
	var c calibration
	c.stepNs = perCall(n, func() {
		for i := 0; i < n; i++ {
			p.Step()
		}
	})
	c.fenceNs = perCall(n, func() {
		for i := 0; i < n; i++ {
			port.Fence()
		}
	})
	// Eight distinct lines per fence epoch: each Flush schedules a
	// write-back and pays FlushDelay; the epoch's Fence is subtracted.
	epochNs := perCall(n/lines, func() {
		for i := 0; i < n/lines; i++ {
			for l := uint64(0); l < lines; l++ {
				port.Flush(base + l*pmem.WordsPerLine)
			}
			port.Fence()
		}
	})
	c.flushNs = (epochNs - c.fenceNs) / lines
	return c
}
