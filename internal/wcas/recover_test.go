package wcas

import (
	"fmt"
	"slices"
	"testing"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// Recovery scenario geometry: two processes, two batch claims of
// recLines lines each, so the crashed image holds live extent slots in
// both claims as well as classic slots.
const (
	recM, recP = 16, 2
	recLines   = 6
)

// recoveredArray builds a durable array, runs a pre-crash epoch of
// batched and classic writes through both processes, and crashes the
// whole system. The crashed image is a function of seed alone.
func recoveredArray(t testing.TB, seed int64) (*proc.Runtime, *Array) {
	t.Helper()
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Shared, Checked: true, Seed: seed})
	rt := proc.NewRuntime(mem, 1)
	rt.SystemCrashMode = true
	port := rt.Proc(0).Mem()
	a := NewWithExtent(mem, port, recM, recP, recP*recLines, func(j int) uint64 { return 0 })
	a.SetDurable(true)
	ports := []*pmem.Port{port, mem.NewPort()}
	for pid, p := range ports {
		h := a.NewHandle(p, pid)
		b := a.NewBatcher(h, recLines, 1<<30)
		for r := 1; r <= 3; r++ {
			b.BeginBatch()
			for j := pid; j < recM; j += recP {
				b.BatchWrite(j, batchVal(r, j))
			}
			b.CommitBatch()
			b.CloseWindow()
		}
		// Classic writes move some objects back to scattered slots and
		// set status words that the next Recover must settle.
		for j := pid; j < recM; j += 3 {
			h.Write(j, batchVal(4, j))
		}
		p.Fence()
	}
	rt.CrashSystem()
	return rt, a
}

// recoveryImage is everything Recover and the first Batchers after it
// derive from Ptr.
type recoveryImage struct {
	status []uint64
	ann    []uint64
	pools  [][]uint32
	live   [][]uint32 // per batcher: liveCnt at construction
}

func (a *Array) imageOf(port *pmem.Port, pools [][]uint32, bs []*Batcher) recoveryImage {
	im := recoveryImage{pools: pools}
	for s := 0; s < a.slots; s++ {
		im.status = append(im.status, port.Read(a.status+pmem.Addr(s)))
	}
	for p := 0; p < a.P; p++ {
		im.ann = append(im.ann, port.Read(a.annAddr(p)))
	}
	for _, b := range bs {
		im.live = append(im.live, slices.Clone(b.liveCnt))
	}
	return im
}

// referenceImage computes, from the Ptr array alone, what a recovery
// must produce: live slots and extent slots unowned, every other slot
// dealt round-robin in slot order, idle announcements, and per claimed
// extent line the number of slots Ptr names.
func (a *Array) referenceImage(port *pmem.Port, claims int) recoveryImage {
	named := map[uint32]bool{}
	for j := 0; j < a.M; j++ {
		named[ptrSlot(port.Read(a.ptr+pmem.Addr(j)))] = true
	}
	im := recoveryImage{pools: make([][]uint32, a.P), status: make([]uint64, a.slots)}
	owner := 0
	for s := 0; s < a.slots; s++ {
		if named[uint32(s)] || s >= a.extBase {
			continue
		}
		im.status[s] = packStatus(owner, false)
		im.pools[owner] = append(im.pools[owner], uint32(s))
		owner = (owner + 1) % a.P
	}
	for p := 0; p < a.P; p++ {
		im.ann = append(im.ann, packAnn(0xFFFFFFFF, 0, false))
	}
	for c := 0; c < claims; c++ {
		cnt := make([]uint32, recLines)
		for ln := range cnt {
			base := a.extBase + (c*recLines+ln)*pmem.WordsPerLine
			for s := base; s < base+pmem.WordsPerLine; s++ {
				if named[uint32(s)] {
					cnt[ln]++
				}
			}
		}
		im.live = append(im.live, cnt)
	}
	return im
}

func (im recoveryImage) diff(want recoveryImage) string {
	switch {
	case !slices.Equal(im.status, want.status):
		for s := range im.status {
			if im.status[s] != want.status[s] {
				return fmt.Sprintf("status[%d] = %#x, want %#x", s, im.status[s], want.status[s])
			}
		}
	case !slices.Equal(im.ann, want.ann):
		return fmt.Sprintf("announcements %#x, want %#x", im.ann, want.ann)
	case !slices.EqualFunc(im.pools, want.pools, slices.Equal):
		return fmt.Sprintf("pools %v, want %v", im.pools, want.pools)
	case !slices.EqualFunc(im.live, want.live, slices.Equal):
		return fmt.Sprintf("batcher liveCnt %v, want %v", im.live, want.live)
	}
	return ""
}

// recoverAndClaim is the recovery prefix of every restart: Recover, one
// handle and one Batcher per process.
func recoverAndClaim(a *Array, port *pmem.Port) ([][]uint32, []*Handle, []*Batcher) {
	pools := a.Recover(port)
	var hs []*Handle
	var bs []*Batcher
	for pid := 0; pid < a.P; pid++ {
		h := a.NewHandleWithPool(port, pid, pools[pid])
		hs = append(hs, h)
		bs = append(bs, a.NewBatcher(h, recLines, 1<<30))
	}
	return pools, hs, bs
}

// firstBatch is the first post-recovery batch: process 0 rewrites every
// object through its Batcher and closes the window.
func firstBatch(b *Batcher) {
	b.BeginBatch()
	for j := 0; j < recM; j++ {
		b.BatchWrite(j, batchVal(9, j))
	}
	b.CommitBatch()
	b.CloseWindow()
}

// TestRecoverCrashSweep crashes at every instrumented step of Recover
// and the first post-recovery batch, then reruns recovery. The rerun's
// status and announcement words, pools and fresh Batchers' liveCnt must
// equal the reference derived from Ptr and, whenever Ptr still holds the
// crashed image, those of the uninterrupted recovery.
func TestRecoverCrashSweep(t *testing.T) {
	const seed = 5
	rt, a := recoveredArray(t, seed)
	port := rt.Proc(0).Mem()
	obs := rt.Mem().NewPort() // reads outside the crash-armed process
	crashedPtr := a.ptrImage(obs)
	start := port.Stats.Steps
	pools, _, bs := recoverAndClaim(a, port)
	clean := a.imageOf(obs, pools, bs)
	if d := clean.diff(a.referenceImage(obs, a.P)); d != "" {
		t.Fatalf("uninterrupted recovery: %s", d)
	}
	firstBatch(bs[0])
	total := int64(port.Stats.Steps - start)
	if total < int64(a.M+a.slots+a.P) {
		t.Fatalf("recovery plus batch took %d steps; the sweep would miss Recover's reads", total)
	}

	for n := int64(1); n <= total; n++ {
		rt, a := recoveredArray(t, seed)
		obs := rt.Mem().NewPort()
		crashed := false
		rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) {
				port := p.Mem()
				if !p.Crashed() {
					p.ArmCrashAfter(n)
					_, _, bs := recoverAndClaim(a, port)
					firstBatch(bs[0])
					p.Disarm()
					return
				}
				crashed = true
				pools, _, bs := recoverAndClaim(a, port)
				got := a.imageOf(obs, pools, bs)
				if d := got.diff(a.referenceImage(obs, a.P)); d != "" {
					t.Errorf("crash after %d steps: rerun vs reference: %s", n, d)
				}
				if slices.Equal(a.ptrImage(obs), crashedPtr) {
					if d := got.diff(clean); d != "" {
						t.Errorf("crash after %d steps: rerun vs uninterrupted recovery: %s", n, d)
					}
				}
				firstBatch(bs[0])
			}
		})
		if !crashed {
			t.Fatalf("n=%d: no crash within the %d-step recovery", n, total)
		}
		for j := 0; j < recM; j++ {
			if got := a.Peek(obs, j); got != batchVal(9, j) {
				t.Fatalf("n=%d: object %d = %#x after the rerun batch", n, j, got)
			}
		}
		if _, err := a.checkNoSharedSlots(obs); err != "" {
			t.Fatalf("n=%d: %s", n, err)
		}
	}
}

func (a *Array) ptrImage(port *pmem.Port) []uint64 {
	var ptr []uint64
	for j := 0; j < a.M; j++ {
		ptr = append(ptr, port.Read(a.ptr+pmem.Addr(j)))
	}
	return ptr
}

// TestRecoverTwiceWritesNothing pins that recovery writes only words
// whose value changes: a Recover straight after a Recover writes
// nothing and hands out the same pools.
func TestRecoverTwiceWritesNothing(t *testing.T) {
	rt, a := recoveredArray(t, 3)
	port := rt.Proc(0).Mem()
	first := a.Recover(port)
	before := port.Stats
	second := a.Recover(port)
	d := port.Stats.Sub(before)
	if d.Writes != 0 || d.CASes != 0 {
		t.Fatalf("second Recover wrote %d words, %d CASes", d.Writes, d.CASes)
	}
	if d.Reads == 0 {
		t.Fatal("second Recover read nothing")
	}
	if !slices.EqualFunc(first, second, slices.Equal) {
		t.Fatalf("pools changed: %v then %v", first, second)
	}
}

// TestNewBatcherAfterRecoverReadsNothing pins the one-pass hand-off: the
// first Batchers after Recover take their per-line counts from Recover's
// Ptr pass and touch no memory.
func TestNewBatcherAfterRecoverReadsNothing(t *testing.T) {
	rt, a := recoveredArray(t, 3)
	port := rt.Proc(0).Mem()
	pools := a.Recover(port)
	before := port.Stats
	for pid := 0; pid < a.P; pid++ {
		a.NewBatcher(a.NewHandleWithPool(port, pid, pools[pid]), recLines, 1<<30)
	}
	if d := port.Stats.Sub(before); d.Steps != 0 {
		t.Fatalf("NewBatcher after Recover made %d steps (%d reads)", d.Steps, d.Reads)
	}
}

// TestClassicWritesBeforeFirstBatcher runs classic Writes between
// Recover and the first NewBatcher — enough of them that retired extent
// slots cycle through the free lists and are reinstalled — then drives
// both claims through many batches that write only the objects living
// outside the extent, so the Batchers bump-fill their lines while other
// objects still live there. A count seeded too low would let a Batcher
// fill a line that still backs an object: no slot may end up backing
// two objects, and the untouched objects must keep their values.
func TestClassicWritesBeforeFirstBatcher(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rt, a := recoveredArray(t, seed)
		port := rt.Proc(0).Mem()
		pools := a.Recover(port)
		var hs []*Handle
		for pid := 0; pid < a.P; pid++ {
			hs = append(hs, a.NewHandleWithPool(port, pid, pools[pid]))
		}
		extentInstalls := 0
		for k := 0; k < 20*len(pools[0]); k++ {
			h := hs[k%a.P]
			j := (k * 5) % recM
			if int(h.freePtr) >= a.extBase {
				extentInstalls++
			}
			h.Write(j, batchVal(5, j))
		}
		var batched, resident []int
		for j := 0; j < recM; j++ {
			if int(ptrSlot(port.Read(a.ptr+pmem.Addr(j)))) < a.extBase {
				batched = append(batched, j)
			} else {
				resident = append(resident, j)
			}
		}
		if extentInstalls == 0 || len(resident) == 0 || len(batched) == 0 {
			t.Fatalf("seed %d: %d extent reinstalls, %d extent-resident objects; the interleaving is not exercised",
				seed, extentInstalls, len(resident))
		}
		var bs []*Batcher
		for pid := 0; pid < a.P; pid++ {
			bs = append(bs, a.NewBatcher(hs[pid], recLines, 1<<30))
		}
		for r := 6; r < 6+4*recLines; r++ {
			b := bs[r%a.P]
			b.BeginBatch()
			for i := 0; i < pmem.WordsPerLine; i++ {
				j := batched[(r+i)%len(batched)]
				b.BatchWrite(j, batchVal(r, j))
			}
			b.CommitBatch()
			b.CloseWindow()
			if _, err := a.checkNoSharedSlots(port); err != "" {
				t.Fatalf("seed %d, round %d: %s", seed, r, err)
			}
		}
		for _, j := range resident {
			if got := a.Peek(port, j); got != batchVal(5, j) {
				t.Fatalf("seed %d: extent-resident object %d = %#x, want %#x", seed, j, got, batchVal(5, j))
			}
		}
		a.Recover(port) // panics on a slot backing two objects
	}
}
