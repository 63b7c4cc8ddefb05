// graphcollective demonstrates the graph-driven collectives subsystem
// (§4.2.6): every collective is a completion graph of point-to-point
// posts — send/receive nodes plus local combine closures, with edges
// encoding the algorithm's partial order — so each has a nonblocking
// handle (Start/Test/Wait) the application progresses like any LCI
// operation, the CUDA-Graph-style usage the paper describes.
//
// The program overlaps an IAllreduce with point-to-point traffic (the
// classic AMT pattern: a global sum in flight while neighbor exchanges
// proceed), then runs a broadcast with an explicitly selected algorithm
// and a ring allgather.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"lci"
)

const ranks = 4

func main() {
	world := lci.NewWorld(ranks)
	defer world.Close()

	err := world.Launch(func(rt *lci.Runtime) error {
		if err := rt.Barrier(); err != nil {
			return err
		}

		// --- Nonblocking allreduce overlapped with p2p traffic ---
		send := make([]byte, 8)
		recv := make([]byte, 8)
		binary.LittleEndian.PutUint64(send, math.Float64bits(float64((rt.Rank()+1)*10)))
		h, err := rt.IAllreduce(send, recv, lci.Float64, lci.OpSum)
		if err != nil {
			return err
		}
		if err := h.Start(); err != nil {
			return err
		}

		// While the collective's graph is in flight, exchange a neighbor
		// message: the progress calls that move the p2p traffic also
		// signal the graph, and each ready round posts right away.
		peer := (rt.Rank() + 1) % ranks
		left := (rt.Rank() - 1 + ranks) % ranks
		const tag = 42
		in := make([]byte, 8)
		cnt := lci.NewCounter()
		rst, err := rt.PostRecv(left, in, tag, cnt)
		if err != nil {
			return err
		}
		out := []byte("neighbor")
		for {
			st, err := rt.PostSend(peer, out, tag, nil)
			if err != nil {
				return err
			}
			if !st.IsRetry() {
				break
			}
			rt.Progress()
		}
		// A Done receive (message already arrived) never signals the
		// counter; only a Posted one needs the wait. Test==true means
		// finished, not succeeded — Wait (below) surfaces any error.
		for rst.IsPosted() && cnt.Load() < 1 {
			h.Test()
			rt.Progress()
		}
		if err := h.Wait(); err != nil {
			return err
		}
		sum := math.Float64frombits(binary.LittleEndian.Uint64(recv))
		fmt.Printf("rank %d: allreduce sum = %v (p2p %q overlapped)\n", rt.Rank(), sum, in)
		if sum != 10+20+30+40 {
			return fmt.Errorf("rank %d: sum %v != 100", rt.Rank(), sum)
		}

		// --- Broadcast with an explicit algorithm choice ---
		msg := make([]byte, 16)
		if rt.Rank() == 2 {
			copy(msg, "from rank two!!")
		}
		if err := rt.Broadcast(msg, 2, lci.WithCollAlgorithm(lci.CollBinomial)); err != nil {
			return err
		}

		// --- Ring allgather: every rank's contribution, everywhere ---
		block := make([]byte, 8)
		binary.LittleEndian.PutUint64(block, uint64(rt.Rank()*rt.Rank()))
		all := make([]byte, ranks*8)
		if err := rt.Allgather(block, all, lci.WithCollAlgorithm(lci.CollRing)); err != nil {
			return err
		}
		for r := 0; r < ranks; r++ {
			if got := binary.LittleEndian.Uint64(all[r*8:]); got != uint64(r*r) {
				return fmt.Errorf("rank %d: allgather block %d = %d", rt.Rank(), r, got)
			}
		}
		fmt.Printf("rank %d: bcast %q, allgather ok\n", rt.Rank(), msg[:15])
		return rt.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
}
