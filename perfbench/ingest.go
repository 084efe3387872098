package main

import (
	"runtime"
	"sync/atomic"

	"delayfree/internal/ingress"
	"delayfree/internal/pmem"
)

// inFlight is the number of operations an ingest producer keeps
// published but not yet acknowledged (a closed loop of this depth).
const inFlight = 256

// sampleEvery picks the operations the traced run records spans for:
// those whose token (or op index) is a multiple of it.
const sampleEvery = 4096

// window is an ingest producer's completion window. The op with token
// t (tokens start at 1) owns slot (t-1) % inFlight until it is
// acknowledged, after which token t+inFlight reuses the slot.
type window struct {
	done   [inFlight]atomic.Uint64 // the combiner stores the token after the op is durable
	pubAt  [inFlight]int64         // producer only
	pubEnd [inFlight]int64         // producer only, traced run
	// Written by the combiner's traced apply wrapper before it returns,
	// hence before the ack store; read by the producer after it loads
	// the ack, so the done word orders them. Plain stores keep the
	// stamping off the ack path's cost.
	applyStart [inFlight]int64
	applyEnd   [inFlight]int64
	applyBatch [inFlight]uint64
}

func slotOf(token uint64) uint64 { return (token - 1) % inFlight }

// producer drives one ingress shard closed-loop with completion
// tokens, timing every op from publish to its observed durable ack.
type producer struct {
	ring  *ingress.Ring
	w     *window
	pub   uint64 // tokens published
	acked uint64 // tokens acknowledged, a prefix: one combiner acks in publish order
	lat   *hist
	spin  func()
	onAck func(token uint64) // optional, runs in ack order
	round uint64

	pr  *probe   // traced run
	log *spanLog // rounds with spans on
}

// publish sends rec as the next op, first waiting for the oldest op
// when the window is full.
func (pd *producer) publish(rec ingress.Record) {
	if pd.pub-pd.acked == inFlight {
		pd.waitOldest()
	}
	pd.pub++
	tok := pd.pub
	i := slotOf(tok)
	rec.Token, rec.Done = tok, &pd.w.done[i]
	t0 := now()
	pd.w.pubAt[i] = t0
	pd.ring.Publish(rec, pd.spin)
	if pd.pr != nil {
		t1 := now()
		pd.w.pubEnd[i] = t1
		pd.pr.publishNs += t1 - t0
		pd.pr.publishes++
	}
	pd.reap()
}

// waitOldest spins until the oldest outstanding op is acknowledged.
func (pd *producer) waitOldest() {
	tok := pd.acked + 1
	d := &pd.w.done[slotOf(tok)]
	for n := 1; d.Load() != tok; n++ {
		if n%64 == 0 {
			runtime.Gosched()
		}
	}
	pd.reap()
}

// reap retires every acknowledged op at the front of the window.
func (pd *producer) reap() {
	if pd.acked == pd.pub || pd.w.done[slotOf(pd.acked+1)].Load() != pd.acked+1 {
		return
	}
	t := now()
	for pd.acked < pd.pub {
		tok := pd.acked + 1
		i := slotOf(tok)
		if pd.w.done[i].Load() != tok {
			break
		}
		pd.lat.record(t - pd.w.pubAt[i])
		if pd.pr != nil {
			pd.traceAck(tok, i, t)
		}
		if pd.onAck != nil {
			pd.onAck(tok)
		}
		pd.acked = tok
	}
}

func (pd *producer) traceAck(tok, i uint64, t int64) {
	w := pd.w
	as, ae := w.applyStart[i], w.applyEnd[i]
	pd.pr.queueWait += as - w.pubEnd[i]
	pd.pr.hold += t - ae
	pd.pr.tracedAcks++
	if pd.log == nil || tok%sampleEvery != 0 {
		return
	}
	op := pd.round<<32 | tok
	root := pd.log.add(spOp, 0, 0, op, w.pubAt[i], t)
	pd.log.add(spPublish, root, 0, op, w.pubAt[i], w.pubEnd[i])
	wait := pd.log.add(spAckWait, root, w.applyBatch[i], op, w.pubEnd[i], t)
	pd.log.add(spQueueWait, wait, 0, op, w.pubEnd[i], as)
	pd.log.add(spInApply, wait, w.applyBatch[i], op, as, ae)
	pd.log.add(spHold, wait, 0, op, ae, t)
}

// finish waits until every published op is acknowledged.
func (pd *producer) finish() {
	for pd.acked < pd.pub {
		pd.waitOldest()
	}
}

// noteApply accounts one traced combiner batch that ran over [t0,t1)
// with memory-operation delta d and, given the producer's window,
// stamps each record's slot with the batch's times and span id.
func noteApply(pr *probe, log *spanLog, w *window, batch []ingress.Record, t0, t1 int64, d pmem.Stats) {
	pr.batches++
	pr.batchOps += uint64(len(batch))
	pr.applyNs += t1 - t0
	pr.applyStats.Add(d)
	var id uint64
	for i := range batch {
		if batch[i].Token%sampleEvery == 0 {
			id = log.add(spApply, 0, 0, 0, t0, t1)
			break
		}
	}
	if w == nil {
		return
	}
	for i := range batch {
		s := slotOf(batch[i].Token)
		w.applyStart[s], w.applyEnd[s], w.applyBatch[s] = t0, t1, id
	}
}
