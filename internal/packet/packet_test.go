package packet_test

import (
	"sync"
	"testing"

	"lci/internal/packet"
)

func TestGetPutLocal(t *testing.T) {
	p := packet.NewPool(1024, 8)
	w := p.RegisterWorker()
	pkt := w.Get()
	if pkt == nil {
		t.Fatal("Get on full deque returned nil")
	}
	if len(pkt.Data) != 1024 {
		t.Fatalf("packet size %d", len(pkt.Data))
	}
	w.Put(pkt)
	if p.Available() != 8 {
		t.Fatalf("Available = %d, want 8", p.Available())
	}
}

func TestExhaustionReturnsNil(t *testing.T) {
	p := packet.NewPool(64, 4)
	w := p.RegisterWorker()
	var got []*packet.Packet
	for i := 0; i < 4; i++ {
		pkt := w.Get()
		if pkt == nil {
			t.Fatalf("Get %d failed early", i)
		}
		got = append(got, pkt)
	}
	if w.Get() != nil {
		t.Fatal("Get on exhausted single-worker pool should return nil (retry path)")
	}
	for _, pkt := range got {
		w.Put(pkt)
	}
}

func TestStealingFromVictim(t *testing.T) {
	p := packet.NewPool(64, 16)
	w1 := p.RegisterWorker()
	w2 := p.RegisterWorker()
	// Drain w1's own deque into a stash.
	var stash []*packet.Packet
	for i := 0; i < 16; i++ {
		stash = append(stash, w1.Get())
	}
	// w1 must now steal from w2.
	pkt := w1.Get()
	if pkt == nil {
		t.Fatal("steal failed with a full victim")
	}
	w1.Put(pkt)
	for _, s := range stash {
		w1.Put(s)
	}
	_ = w2
	if p.Available() != 32 {
		t.Fatalf("Available = %d, want 32", p.Available())
	}
}

func TestPutWrongPoolPanics(t *testing.T) {
	p1 := packet.NewPool(64, 2)
	p2 := packet.NewPool(64, 2)
	w1, w2 := p1.RegisterWorker(), p2.RegisterWorker()
	pkt := w1.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w2.Put(pkt)
}

func TestConcurrentChurnNoLoss(t *testing.T) {
	p := packet.NewPool(64, 32)
	const workers = 8
	ws := make([]*packet.Worker, workers)
	for i := range ws {
		ws[i] = p.RegisterWorker()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w *packet.Worker) {
			defer wg.Done()
			held := make([]*packet.Packet, 0, 8)
			for it := 0; it < 20000; it++ {
				if it%3 == 2 && len(held) > 0 {
					w.Put(held[len(held)-1])
					held = held[:len(held)-1]
					continue
				}
				if pkt := w.Get(); pkt != nil {
					held = append(held, pkt)
				}
			}
			for _, pkt := range held {
				w.Put(pkt)
			}
		}(ws[i])
	}
	wg.Wait()
	if got := p.Available(); got != workers*32 {
		t.Fatalf("Available = %d, want %d (packets lost or duplicated)", got, workers*32)
	}
}

// TestSharedWorkerConcurrentSteal: one Worker serves several goroutines
// (a device's default worker does, for every unpinned post and every
// Progress caller), so its steal path must be safe for concurrent use.
// Two goroutines drive Gets on a drained worker, forcing steals from a
// second worker they keep refilling (run under -race).
func TestSharedWorkerConcurrentSteal(t *testing.T) {
	const quota = 16
	p := packet.NewPool(64, quota)
	w := p.RegisterWorker()
	victim := p.RegisterWorker()
	var stash []*packet.Packet
	for i := 0; i < quota; i++ {
		stash = append(stash, w.Get())
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5000; it++ {
				if pkt := w.Get(); pkt != nil {
					victim.Put(pkt)
				}
			}
		}()
	}
	wg.Wait()
	for _, pkt := range stash {
		w.Put(pkt)
	}
	if got := p.Available(); got != 2*quota {
		t.Fatalf("Available = %d, want %d (packets lost or duplicated)", got, 2*quota)
	}
}
