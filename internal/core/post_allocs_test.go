package core

import (
	"testing"

	"lci/internal/base"
	"lci/internal/netsim/fabric"
	"lci/internal/netsim/ibv"
	"lci/internal/network"
)

// TestPostInjectAllocs pins the inject fast path at zero allocations:
// an inject-size PostSend or PostAM copies the payload into a recycled
// packet and returns its status by value, and no backlog closure may
// capture (and so heap-move) the caller's Options. The receiver is not
// progressed during the measurement, so only the posting side counts;
// its pre-posted receives absorb every message.
func TestPostInjectAllocs(t *testing.T) {
	const runs = 50
	fab := fabric.New(fabric.Config{NumRanks: 2})
	be := network.NewIBV(ibv.Config{SendOverheadNs: 1, RecvOverheadNs: 1})
	cfg := Config{PacketsPerWorker: 8 * runs, PreRecvs: 2 * runs}
	rts := make([]*Runtime, 2)
	for r := range rts {
		rt, err := NewRuntime(be, fab, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rts[r] = rt
	}
	var rc base.RComp
	for _, rt := range rts { // symmetric registration order
		rc = rt.RegisterHandler(func(base.Status) {})
	}
	buf := make([]byte, 8)
	if len(buf) > rts[0].cfg.InjectSize {
		t.Fatalf("InjectSize %d below the 8 B payload", rts[0].cfg.InjectSize)
	}
	for _, tc := range []struct {
		name string
		post func() (base.Status, error)
	}{
		{"PostSend", func() (base.Status, error) { return rts[0].PostSend(1, buf, 7, nil, Options{}) }},
		{"PostAM", func() (base.Status, error) { return rts[0].PostAM(1, buf, 7, nil, Options{RComp: rc}) }},
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			st, err := tc.post()
			if err != nil || !st.IsDone() {
				t.Fatalf("%s: status %+v, err %v; want an inject completion", tc.name, st, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per inject post, want 0", tc.name, allocs)
		}
		for rts[1].ProgressAll()+rts[0].ProgressAll() > 0 {
		}
	}
}
