// Command perfbench is the repository's benchmark: one process that
// builds the simulated persistent-memory system from the repository's
// packages, drives one of four workloads through their public calls,
// checks the program's output, and prints every metric by name and
// unit. See README.md for why each workload exists.
//
//	perfbench --workload queue-ingest --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result object; the line
// before it is a report with run metadata, sample counts and the
// workload-specific metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"delayfree/internal/pmem"
)

// Simulated NVM latency charged per effective flush and per fence, in
// spin iterations: the repository's benchmark defaults (harness
// DefaultConfig).
const (
	flushDelay = 250
	fenceDelay = 120
)

// Safety caps: a run stops starting rounds once its wall time passes
// wallCap, so it exits well inside the 180 s allowance even on a
// loaded host; it always measures at least minRounds rounds after the
// warm-up round.
const (
	wallCap   = 120 * time.Second
	minRounds = 3
)

// epoch is the time base of every timestamp the benchmark takes.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// workload is one benchmark workload: a name later changes cite, the
// process counts it runs, and one round (set up a fresh system, run a
// fixed amount of generated work, check the output).
type workload struct {
	name                string
	producers, combiner int // producer processes and combiner processes (0 or 1)
	workers             int // processes invoking operations directly
	round               func(r *run, n int) error
}

var workloads = []*workload{queueIngest, mapIngest, stackDirect, mapRecover}

func main() {
	name := flag.String("workload", "", "workload: queue-ingest, map-ingest, stack-direct or map-recover")
	seed := flag.Int64("seed", 1, "seed for every random draw of the inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds (summed over rounds)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	r := newRun(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	// One P more than the simulated processes. With exactly as many Ps
	// as processes, the Gosched-polling producer and combiner loops fall
	// at random, round by round, into a regime where the two share one
	// P: on map-recover per-round p50 ack latency then switches between
	// about 50 and 95 us, and map-ingest's p99 reaches milliseconds.
	// With a spare P every round runs in one regime.
	runtime.GOMAXPROCS(r.procs() + 1)
	if err := r.execute(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	report, result := r.results()
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(result); err != nil {
		os.Exit(1)
	}
}

// run accumulates one invocation's rounds.
type run struct {
	w       *workload
	seed    int64
	budget  time.Duration
	traced  bool
	started time.Time

	rounds []roundStat
	// cur collects the running round's latencies: publish → durable
	// ack for the ingest workloads, invoke → return for stack-direct,
	// and map Gets. write and read pool every measured round.
	cur         *roundHists
	write, read hist
	recovery    []float64
	stats       pmem.Stats
	measured    time.Duration

	attempted, completed, failed uint64
	checkErrs                    []string
	mallocs                      uint64 // heap allocations in measured phases

	// Traced run only.
	calib      calibration
	probes     []*probe
	logs       []*spanLog
	untracedM  []float64     // Mops/s of the untraced rounds
	tracedM    []float64     // Mops/s of the traced rounds
	tracedTime time.Duration // measured time of the traced rounds

	heapMB float64 // live heap of the current round's set-up system
}

type roundHists struct{ write, read hist }

// roundStat is one round's figures; medians across rounds are the
// reported values, and their quartiles the reported spread.
type roundStat struct {
	setup    float64 // seconds
	heapMB   float64
	mops     float64
	effFlush float64
	fences   float64
	ack      [3]float64 // p50, p90, p99 in microseconds
	get      [2]float64
}

func newRun(w *workload, seed int64, budget time.Duration, traced bool) *run {
	return &run{w: w, seed: seed, budget: budget, traced: traced, cur: new(roundHists)}
}

func (r *run) procs() int { return r.w.producers + r.w.combiner + r.w.workers }

func (r *run) execute() error {
	r.started = time.Now()
	if r.traced {
		r.calib = calibrate()
		r.probes = make([]*probe, r.procs())
		r.logs = make([]*spanLog, r.procs())
		for i := range r.probes {
			r.probes[i] = &probe{}
			r.logs[i] = newSpanLog(i)
		}
	}
	for n := 0; n <= minRounds || (r.measured < r.budget && time.Since(r.started) < wallCap); n++ {
		if err := r.w.round(r, n); err != nil {
			return err
		}
		if n == 0 {
			r.discardWarmup()
		}
	}
	if r.traced {
		path := filepath.Join(".bench_build", "spans", r.w.name+".tsv")
		if err := writeSpans(path, r.logs); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// discardWarmup drops the figures of round 0, which runs while caches,
// the heap and the scheduler settle; its output check still counts.
func (r *run) discardWarmup() {
	r.rounds, r.untracedM, r.tracedM, r.tracedTime = nil, nil, nil, 0
	r.write, r.read = hist{}, hist{}
	r.recovery = nil
	r.stats = pmem.Stats{}
	r.measured = 0
	r.mallocs = 0
	for i := range r.probes {
		r.probes[i] = &probe{}
	}
}

// spansOn reports whether round n is traced: it records spans and
// per-layer probes. A traced run alternates traced and untraced rounds,
// so its own untraced rounds give the tracing overhead's baseline.
func (r *run) spansOn(n int) bool { return r.traced && n%2 == 1 }

// probe returns process pid's accumulator in a traced round, else nil.
func (r *run) probe(pid, n int) *probe {
	if !r.spansOn(n) {
		return nil
	}
	return r.probes[pid]
}

// spanLog returns process pid's span log for round n, or nil.
func (r *run) spanLog(pid, n int) *spanLog {
	if !r.spansOn(n) {
		return nil
	}
	return r.logs[pid]
}

// measureStart forces a collection so set-up garbage does not land in
// the measured phase, records the live heap of the set-up system, and
// snapshots the allocation counter.
func (r *run) measureStart() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return ms.Mallocs
}

// finishRound records a round: its set-up time, measured span,
// attempted and completed (acknowledged) operations, and its memory-operation counters.
func (r *run) finishRound(n int, setup, measured time.Duration, attempted, ops uint64, st pmem.Stats, mallocs0 uint64) {
	r.attempted += attempted
	r.completed += ops
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs += ms.Mallocs - mallocs0
	rs := roundStat{setup: setup.Seconds(), heapMB: r.heapMB,
		ack: [3]float64{r.cur.write.quantile(0.50) / 1e3, r.cur.write.quantile(0.90) / 1e3,
			r.cur.write.quantile(0.99) / 1e3},
		get: [2]float64{r.cur.read.quantile(0.50) / 1e3, r.cur.read.quantile(0.99) / 1e3}}
	r.write.merge(&r.cur.write)
	r.read.merge(&r.cur.read)
	*r.cur = roundHists{}
	if ops > 0 && measured > 0 {
		rs.mops = float64(ops) / measured.Seconds() / 1e6
		rs.effFlush = float64(st.EffectiveFlushes()) / float64(ops)
		rs.fences = float64(st.Fences) / float64(ops)
	}
	r.rounds = append(r.rounds, rs)
	r.stats.Add(st)
	r.measured += measured
	if r.traced {
		if r.spansOn(n) {
			r.tracedM = append(r.tracedM, rs.mops)
			r.tracedTime += measured
		} else {
			r.untracedM = append(r.untracedM, rs.mops)
		}
	}
}

// fail records an output check that found bad failed operations.
func (r *run) fail(bad uint64, format string, args ...any) {
	r.failed += bad
	if len(r.checkErrs) < 8 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// median and quartiles of a sample, as statistics.quantiles(n=4)
// computes them (exclusive method).
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(len(s)+1)
		j := int(math.Floor(m))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(v []float64) float64 { _, m, _ := quartiles(v); return m }

func column(rs []roundStat, f func(roundStat) float64) []float64 {
	out := make([]float64, len(rs))
	for i, x := range rs {
		out[i] = f(x)
	}
	return out
}

// results builds the report line and the result object.
func (r *run) results() (map[string]any, result) {
	mops := column(r.rounds, func(x roundStat) float64 { return x.mops })
	eff := column(r.rounds, func(x roundStat) float64 { return x.effFlush })
	fen := column(r.rounds, func(x roundStat) float64 { return x.fences })
	e2e := map[string]metric{
		"throughput_mops":    {median(mops), "Mops/s"},
		"write_ack_p50_us":   {median(column(r.rounds, func(x roundStat) float64 { return x.ack[0] })), "us"},
		"write_ack_p90_us":   {median(column(r.rounds, func(x roundStat) float64 { return x.ack[1] })), "us"},
		"eff_flushes_per_op": {median(eff), "count"},
		"fences_per_op":      {median(fen), "count"},
		"heap_mb":            {median(column(r.rounds, func(x roundStat) float64 { return x.heapMB })), "MB"},
		"setup_s":            {median(column(r.rounds, func(x roundStat) float64 { return x.setup })), "s"},
	}
	specific := map[string]metric{
		"ops_failed_share": {0, "share"},
		"write_ack_p99_us": {median(column(r.rounds, func(x roundStat) float64 { return x.ack[2] })), "us"},
	}
	if r.attempted > 0 {
		lost := min(r.attempted-min(r.completed, r.attempted)+r.failed, r.attempted)
		specific["ops_failed_share"] = metric{float64(lost) / float64(r.attempted), "share"}
	}
	if r.read.n > 0 {
		specific["read_p50_us"] = metric{median(column(r.rounds, func(x roundStat) float64 { return x.get[0] })), "us"}
		specific["read_p99_us"] = metric{median(column(r.rounds, func(x roundStat) float64 { return x.get[1] })), "us"}
	}
	if len(r.recovery) > 0 {
		_, p50, _ := quartiles(r.recovery)
		specific["recovery_p50_us"] = metric{p50, "us"}
		specific["recovery_p90_us"] = metric{quantileExact(r.recovery, 0.9), "us"}
	}
	q1, _, q3 := quartiles(mops)
	e1, _, e3 := quartiles(eff)
	report := map[string]any{
		"workload": r.w.name,
		"meta": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"commit": gitCommit(), "flush_delay": flushDelay, "fence_delay": fenceDelay,
			"seed": r.seed, "traced": r.traced, "rounds": len(r.rounds),
			"measured_s": r.measured.Seconds(), "wall_s": time.Since(r.started).Seconds(),
			"producers": r.w.producers, "combiners": r.w.combiner, "workers": r.w.workers,
		},
		"samples": map[string]uint64{
			"write_ack": r.write.n, "read": r.read.n, "recovery": uint64(len(r.recovery)),
			"rounds": uint64(len(r.rounds)),
		},
		"spread": map[string]float64{
			"throughput_mops_q1": q1, "throughput_mops_q3": q3,
			"eff_flushes_per_op_q1": e1, "eff_flushes_per_op_q3": e3,
			"pooled_write_ack_p50_us":  r.write.quantile(0.50) / 1e3,
			"pooled_write_ack_p99_us":  r.write.quantile(0.99) / 1e3,
			"pooled_write_ack_p999_us": r.write.quantile(0.999) / 1e3,
			"pooled_read_p50_us":       r.read.quantile(0.50) / 1e3,
			"pooled_read_p99_us":       r.read.quantile(0.99) / 1e3,
		},
		"round_mops":               mops,
		"round_write_ack_p50_us":   column(r.rounds, func(x roundStat) float64 { return x.ack[0] }),
		"round_write_ack_p99_us":   column(r.rounds, func(x roundStat) float64 { return x.ack[2] }),
		"round_eff_flushes_per_op": eff,
		"workload_metrics":         specific,
		"check_errors":             r.checkErrs,
	}
	res := result{
		Correct:   r.failed == 0 && len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	if r.attempted == 0 {
		res.Attempted = 1
		res.Correct = false
		res.Failed = 1
	}
	if r.traced {
		layer := r.layerMetrics()
		for k, v := range specific {
			layer[k] = v
		}
		for _, name := range []string{"read_p50_us", "read_p99_us", "recovery_p50_us", "recovery_p90_us"} {
			if _, ok := layer[name]; !ok {
				layer[name] = metric{0, "us"}
			}
		}
		res.Metrics = layer
		report["end_to_end"] = e2e
		report["self_time_ms"] = r.selfTimeMs()
	} else {
		res.Metrics = e2e
	}
	return report, res
}

// quantileExact is the nearest-rank q-quantile of an exact sample.
func quantileExact(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// gitCommit reads the checkout's commit from .git without running git;
// "unknown" outside a git work tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}
