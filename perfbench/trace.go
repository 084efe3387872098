package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Spans recorded by the traced run. Every span is taken at a call site
// in this benchmark, around a call into one layer of the program, and
// its name says which layer it times:
//
//	producer.op         publish start → durable ack observed (root)
//	ingress.publish     ingress.Ring.Publish (child of op)
//	producer.ack-wait   publish end → ack observed (child of op); its link
//	                    is the apply span of the batch that applied the op
//	ingress.queue-wait  derived: publish end → apply start (child of ack-wait)
//	applier.in-apply    derived: apply start → apply end (child of ack-wait)
//	ingress.hold        derived: apply end → ack observed (child of ack-wait)
//	applier.apply       combiner: one batch through the family applier (root)
//	pmap.close          combiner: group-commit window close (root)
//	pmap.recover        combiner: Map.Recover after a full-system crash (root)
//	capsule.invoke      one capsule.Machine.Invoke of a family op (root)
const (
	spOp uint8 = iota
	spPublish
	spAckWait
	spQueueWait
	spInApply
	spHold
	spApply
	spClose
	spRecover
	spInvoke
	numSpanNames
)

var spanNames = [numSpanNames]string{"producer.op", "ingress.publish", "producer.ack-wait",
	"ingress.queue-wait", "applier.in-apply", "ingress.hold", "applier.apply", "pmap.close",
	"pmap.recover", "capsule.invoke"}

// span is one recorded interval. Times are nanoseconds since the run's
// time base. cause is the id of the span that caused this one (0 for a
// root); op is the operation id its spans share (a batch-level span
// carries 0); link ties an op's ack-wait to the batch span that applied
// the op's record.
type span struct {
	id, cause, link, op uint64
	start, end          int64
	name                uint8
}

// spanLog is one process's fixed-capacity span buffer. It has a single
// writer; a full log drops and counts further spans instead of growing.
type spanLog struct {
	spans   []span
	seq     uint64
	pid     uint64
	dropped uint64
}

// spanCap bounds each process's span buffer (about 7 MiB).
const spanCap = 1 << 17

func newSpanLog(pid int) *spanLog {
	return &spanLog{spans: make([]span, 0, spanCap), pid: uint64(pid) + 1}
}

// add records s and returns its id, or 0 when the log is full (or nil).
func (l *spanLog) add(name uint8, cause, link, op uint64, start, end int64) uint64 {
	if l == nil {
		return 0
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return 0
	}
	l.seq++
	id := l.pid<<40 | l.seq
	l.spans = append(l.spans, span{id: id, cause: cause, link: link, op: op, start: start, end: end, name: name})
	return id
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval
// covered by its children (spans whose cause is it).
func selfTimes(spans []span) [numSpanNames]float64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.cause != 0 {
			children[s.cause] = append(children[s.cause], [2]int64{s.start, s.end})
		}
	}
	var out [numSpanNames]float64
	for _, s := range spans {
		dur := s.end - s.start
		if cs := children[s.id]; len(cs) > 0 {
			dur -= covered(cs, s.start, s.end)
		}
		if dur > 0 {
			out[s.name] += float64(dur)
		}
	}
	return out
}

// covered returns how much of [lo,hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes every recorded span as one tab-separated line
// (id, cause, link, op, name, start_ns, end_ns) to path.
func writeSpans(path string, logs []*spanLog) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tcause\tlink\top\tname\tstart_ns\tend_ns")
	for _, l := range logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.cause, s.link, s.op, spanNames[s.name], s.start, s.end)
		}
	}
	return w.Flush()
}
