package netsim_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/packet"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/worldgen"
)

// legSample returns destinations of every kind a walk meets: every
// interface address (owned), every address of every LAN prefix (owned
// ports and dead slots), random addresses inside announced prefixes
// (routed, mostly unowned), and random addresses (nearly all
// unrouted).
func legSample(w *scenario.World) []netaddr.Addr {
	var addrs []netaddr.Addr
	for _, n := range w.Net.Nodes() {
		for _, id := range n.Ifaces {
			addrs = append(addrs, w.Net.Iface(id).Addr)
		}
	}
	for _, lan := range w.Net.LANs() {
		for i := uint64(0); i < lan.Prefix.NumAddrs(); i++ {
			addrs = append(addrs, lan.Prefix.Nth(i))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, po := range w.BGP.RoutedPrefixes() {
		for k := 0; k < 8; k++ {
			addrs = append(addrs, po.Prefix.Nth(uint64(rng.Int63n(int64(po.Prefix.NumAddrs())))))
		}
	}
	for k := 0; k < 200; k++ {
		addrs = append(addrs, netaddr.Addr(rng.Uint32()))
	}
	return addrs
}

// TestLegStepMatchesPerHop checks, on a generated 1× world, that the
// step resolved from a per-leg destination lookup equals the per-hop
// oracle's for every node toward every sampled destination, and that
// the sample reaches every branch of the decision.
func TestLegStepMatchesPerHop(t *testing.T) {
	w := worldgen.Generate(worldgen.Options{Scale: 1})
	nw := w.Net
	var routed, unrouted int
	for _, a := range legSample(w) {
		if _, ok := w.BGP.OriginOf(a); ok {
			routed++
		} else {
			unrouted++
		}
		for _, n := range nw.Nodes() {
			got, gotOK := nw.ResolveStep(n, a)
			want, wantOK := nw.ResolveStepPerHop(n, a)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s toward %v: leg-resolved (%v, ok=%t), per-hop (%v, ok=%t)", n.Name, a, got, gotOK, want, wantOK)
			}
		}
	}
	if routed == 0 || unrouted == 0 {
		t.Fatalf("sample has %d routed and %d unrouted destinations", routed, unrouted)
	}
}

// TestLegInjectMatchesPerHop injects the same echo probes into two
// copies of a generated 1× world, one walked with per-leg destination
// lookups (Inject) and one with the per-hop oracle (InjectPerHop):
// outcomes, errors, arrival times and response wires must agree
// probe for probe. The probes cross the planted member ports' queues
// at campaign time, from every VP host and from a spread of routers,
// at TTLs that expire along the path and at one that reaches the
// destination.
func TestLegInjectMatchesPerHop(t *testing.T) {
	leg := worldgen.Generate(worldgen.Options{Scale: 1})
	perHop := worldgen.Generate(worldgen.Options{Scale: 1})
	var srcs []netsim.NodeID
	for _, vp := range leg.VPs {
		srcs = append(srcs, vp.Node.ID)
	}
	for i := 0; i < len(leg.Net.Nodes()); i += 15 {
		srcs = append(srcs, netsim.NodeID(i))
	}
	dsts := legSample(leg)
	rng := rand.New(rand.NewSource(2))
	tm := simclock.Date(2016, time.July, 20)
	outcomes := map[netsim.Outcome]int{}
	for _, id := range srcs {
		srcA, srcB := leg.Net.Node(id), perHop.Net.Node(id)
		for _, dst := range dsts {
			if rng.Intn(4) != 0 {
				continue
			}
			ttl := uint8(1 + rng.Intn(6))
			if rng.Intn(3) == 0 {
				ttl = 64
			}
			wire, err := packet.BuildEcho(packet.IPv4{TTL: ttl, Src: leg.Net.SrcAddr(srcA), Dst: dst},
				7, uint16(ttl), []byte("leg"))
			if err != nil {
				t.Fatal(err)
			}
			tm = tm.Add(time.Duration(1+rng.Intn(20000)) * time.Millisecond)
			ra, oa, ea := leg.Net.Inject(srcA, wire, tm)
			rb, ob, eb := perHop.Net.InjectPerHop(srcB, wire, tm)
			if oa != ob || (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) ||
				ra.At != rb.At || ra.From != rb.From || !bytes.Equal(ra.Wire, rb.Wire) {
				t.Fatalf("%s toward %v ttl %d at %v: leg-resolved (%v, %v, at %v from %v), per-hop (%v, %v, at %v from %v)",
					srcA.Name, dst, ttl, tm, oa, ea, ra.At, ra.From, ob, eb, rb.At, rb.From)
			}
			outcomes[oa]++
		}
	}
	if outcomes[netsim.Delivered] == 0 || outcomes[netsim.Unreachable] == 0 {
		t.Fatalf("sample misses an outcome: %v", outcomes)
	}
}
