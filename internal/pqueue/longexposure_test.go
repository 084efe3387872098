package pqueue

import (
	"os"
	"path/filepath"
	"testing"

	"delayfree/internal/workload"
)

// TestQueueSharedCrashSeedSweep sweeps seeds 0..40 of the general
// queue's crash stress in the shared-cache model (Procs 2, Ops 20, a
// full history audit against durable state) and requires every round
// to be durably linearizable.
//
// It pins the dup+stranded violation this configuration used to show
// (seeds 4, 13 and 27 before the fix): an enqueuer's link CAS succeeded
// just before a crash, the node it linked behind was dequeued and freed
// before the enqueuer recovered, and Free's raw link write erased the
// evidence, so CheckRecovery denied the CAS and the value was enqueued
// twice. free now overwrites the link through CasAnon, which notifies
// the enqueuer first. The lethal crash points drift whenever step
// counts change, hence the sweep rather than a fixed seed list.
//
// Failing rounds dump their history (history-general-seed<N>-shared.json:
// the violations, witness operations, recovered residue and pmem
// counters) into a temporary directory, or into QUEUE_TRACE_DIR when set
// so it survives the run:
//
//	QUEUE_TRACE_DIR=/tmp/traces go test ./internal/pqueue -run SharedCrashSeedSweep -v
func TestQueueSharedCrashSeedSweep(t *testing.T) {
	dir := t.TempDir()
	if env := os.Getenv("QUEUE_TRACE_DIR"); env != "" {
		dir = env
	}
	for seed := int64(0); seed <= 40; seed++ {
		if _, err := CrashStress("general", func(cfg Config) Queue { return NewGeneral(cfg) },
			workload.StressConfig{Procs: 2, Ops: 20, Seed: seed, Shared: true,
				Audit: true, ArtifactDir: dir}); err != nil {
			t.Errorf("seed=%d: %v", seed, err)
		}
	}
	if t.Failed() {
		if matches, _ := filepath.Glob(filepath.Join(dir, "history-*.json")); len(matches) > 0 {
			t.Logf("failing-history artifacts: %v", matches)
		}
	}
}
