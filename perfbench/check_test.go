package main

import "testing"

// Each output check must flag an acknowledged operation that the
// program dropped, and pass the intact output.

func TestCheckQueueFlagsDroppedAck(t *testing.T) {
	rng := roundRand(7, 0)
	want := make([]uint64, 100)
	for k := range want {
		want[k] = queueValue(rng, k)
	}
	got := []uint64{0, 1, 2}
	got = append(got, want...)
	if bad, why := checkQueue(got, 3, want); bad != 0 {
		t.Fatalf("intact queue flagged: %d (%s)", bad, why)
	}
	dropped := append(append([]uint64{}, got[:50]...), got[51:]...)
	if bad, _ := checkQueue(dropped, 3, want); bad != 1 {
		t.Fatalf("dropped ack: %d failures, want 1", bad)
	}
	swapped := append([]uint64{}, got...)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	if bad, _ := checkQueue(swapped, 3, want); bad == 0 {
		t.Fatal("out-of-order drain not flagged")
	}
}

func TestCheckMapFlagsDroppedAck(t *testing.T) {
	shadow := []uint64{0, 11, 0, 31} // keys 1 and 3 present with values 10 and 30
	dump := map[uint64]uint64{1: 10, 3: 30}
	if bad, why := checkMap(dump, shadow); bad != 0 {
		t.Fatalf("intact map flagged: %d (%s)", bad, why)
	}
	delete(dump, 3)
	if bad, _ := checkMap(dump, shadow); bad != 1 {
		t.Fatalf("dropped put: %d failures, want 1", bad)
	}
}

func TestCheckStackFlagsDroppedAck(t *testing.T) {
	const seeded, procs, pairs = 4, 2, 3
	var popped, remaining []uint64
	for pid := 0; pid < procs; pid++ {
		for k := 0; k < pairs; k++ {
			popped = append(popped, pushValue(pid, k))
		}
	}
	for i := 0; i < seeded; i++ {
		remaining = append(remaining, uint64(i))
	}
	if bad, why := checkStack(popped, remaining, seeded, procs, pairs); bad != 0 {
		t.Fatalf("intact stack flagged: %d (%s)", bad, why)
	}
	if bad, _ := checkStack(popped[1:], remaining, seeded, procs, pairs); bad != 1 {
		t.Fatalf("dropped push: %d failures, want 1", bad)
	}
	if bad, _ := checkStack(append(popped, popped[0]), remaining, seeded, procs, pairs); bad != 1 {
		t.Fatalf("value popped twice: %d failures, want 1", bad)
	}
}

func TestCheckRecoveredFlagsDroppedAck(t *testing.T) {
	// Attempts 0..5 alternate keys 1 and 2; attempt 4 deletes key 1.
	op := func(k uint64) (uint64, bool) { return 1 + k%2, k == 4 }
	acked := []bool{true, true, true, true, false, false}
	// Key 1: acked put 2, then an unacknowledged delete (4); either
	// state is valid. Key 2: acked put 3, unacknowledged put 5.
	for _, dump := range []map[uint64]uint64{
		{1: putTag | 2, 2: putTag | 3},
		{2: putTag | 5},
	} {
		if bad, why := checkRecovered(dump, 2, op, acked); bad != 0 {
			t.Fatalf("valid recovery %v flagged: %s", dump, why)
		}
	}
	// Key 2 reverting to the older acknowledged put 1 loses put 3;
	// key 1 reverting to its initial value loses puts 0 and 2.
	for _, dump := range []map[uint64]uint64{
		{1: putTag | 2, 2: putTag | 1},
		{1: 1, 2: putTag | 3},
	} {
		if bad, _ := checkRecovered(dump, 2, op, acked); bad != 1 {
			t.Fatalf("lost acknowledged put in %v: %d failures, want 1", dump, bad)
		}
	}
}
