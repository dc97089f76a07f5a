package netsim_test

import (
	"math/rand"
	"testing"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/scenario"
	"afrixp/internal/worldgen"
)

// checkConnected asserts that the lookup and the reference interface
// scan agree on (hop, ok) for node n toward dst, and returns ok.
func checkConnected(t *testing.T, nw *netsim.Network, n *netsim.Node, dst netaddr.Addr) bool {
	t.Helper()
	got, gotOK := nw.ConnectedStep(n, dst)
	want, wantOK := nw.ConnectedStepScan(n, dst)
	if got != want || gotOK != wantOK {
		t.Fatalf("%s toward %v: lookup (%v, ok=%t), scan (%v, ok=%t)", n.Name, dst, got, gotOK, want, wantOK)
	}
	return gotOK
}

// assertConnectedMatchesScan runs the oracle over a whole network:
// every node toward every interface address; every node attached to a
// LAN toward every address of its prefix, owned or not; every node
// toward one unowned address per LAN; and every node toward random
// addresses, nearly all unconnected.
func assertConnectedMatchesScan(t *testing.T, nw *netsim.Network) {
	var addrs []netaddr.Addr
	for _, n := range nw.Nodes() {
		for _, id := range n.Ifaces {
			addrs = append(addrs, nw.Iface(id).Addr)
		}
	}
	connected := 0
	for _, n := range nw.Nodes() {
		for _, a := range addrs {
			if checkConnected(t, nw, n, a) {
				connected++
			}
		}
	}
	if connected == 0 {
		t.Fatal("no node is connected to any interface address")
	}

	unowned := 0
	for _, lan := range nw.LANs() {
		var dead netaddr.Addr
		for i := uint64(1); i+1 < lan.Prefix.NumAddrs(); i++ {
			a := lan.Prefix.Nth(i)
			if _, _, owned := nw.OwnerOfAddr(a); !owned {
				dead = a
				break
			}
		}
		if dead.IsZero() {
			continue
		}
		unowned++
		for _, n := range nw.Nodes() {
			checkConnected(t, nw, n, dead)
		}
		for _, att := range lan.Attachments {
			n := nw.Node(nw.Iface(att.Iface).Node)
			for i := uint64(0); i < lan.Prefix.NumAddrs(); i++ {
				checkConnected(t, nw, n, lan.Prefix.Nth(i))
			}
		}
	}
	if unowned == 0 {
		t.Fatal("no LAN has an unowned address")
	}

	rng := rand.New(rand.NewSource(1))
	for _, n := range nw.Nodes() {
		for k := 0; k < 20; k++ {
			checkConnected(t, nw, n, netaddr.Addr(rng.Uint32()))
		}
	}
}

func TestConnectedStepMatchesScanPaperWorld(t *testing.T) {
	assertConnectedMatchesScan(t, scenario.Paper(scenario.Options{Seed: 1, Scale: 1}).Net)
}

func TestConnectedStepMatchesScanGeneratedWorld(t *testing.T) {
	assertConnectedMatchesScan(t, worldgen.Generate(worldgen.Options{Scale: 10}).Net)
}

// TestConnectedStepFirstMatchOrder builds a router whose LAN ports sit
// before and after its point-to-point links, with each link's far
// address inside a LAN prefix, so a destination matches both a link
// and a fabric: the interface earlier in Ifaces must decide.
func TestConnectedStepFirstMatchOrder(t *testing.T) {
	mp, ma := netaddr.MustParsePrefix, netaddr.MustParseAddr
	g := asrel.NewGraph()
	g.AddAS(100, "R", "")
	nw := netsim.New(bgpsim.New(g), 1)
	r := nw.AddNode("r", 100)
	x, y, z := nw.AddNode("x", 100), nw.AddNode("y", 100), nw.AddNode("z", 100)

	lanEarly := nw.AddLAN(mp("10.1.0.0/24"))
	nw.AttachToLAN(r, lanEarly, netsim.AttachSpec{Addr: ma("10.1.0.1")})
	nw.AttachToLAN(z, lanEarly, netsim.AttachSpec{Addr: ma("10.1.0.2")})
	// x's end of this link lies inside the earlier LAN's prefix.
	nw.ConnectLink(r, x, netsim.LinkSpec{AddrA: ma("10.2.0.1"), AddrB: ma("10.1.0.9")})
	viaY := nw.ConnectLink(r, y, netsim.LinkSpec{AddrA: ma("10.3.0.1"), AddrB: ma("10.4.0.9")})
	// y's end of the link above lies inside this later LAN's prefix.
	lanLate := nw.AddLAN(mp("10.4.0.0/24"))
	nw.AttachToLAN(r, lanLate, netsim.AttachSpec{Addr: ma("10.4.0.1")})

	if checkConnected(t, nw, r, ma("10.1.0.9")) {
		t.Fatal("an unowned address on an earlier LAN must shadow the later link")
	}
	h, ok := nw.ConnectedStep(r, ma("10.4.0.9"))
	if !ok || h.EgressID() != viaY.A {
		t.Fatalf("an earlier link must win over a later LAN: %v ok=%t", h, ok)
	}
	checkConnected(t, nw, r, ma("10.4.0.9"))
	if !checkConnected(t, nw, r, ma("10.1.0.2")) {
		t.Fatal("an owned address on the LAN must be connected")
	}
	if checkConnected(t, nw, r, ma("10.4.0.77")) {
		t.Fatal("an unowned address on the later LAN must be dead")
	}
	for _, n := range []*netsim.Node{x, y, z} {
		for _, a := range []string{"10.1.0.1", "10.2.0.1", "10.3.0.1", "10.4.0.1", "10.1.0.9", "10.4.0.9"} {
			checkConnected(t, nw, n, ma(a))
		}
	}
}

var connectedSink bool

// BenchmarkConnectedStep resolves the connected-subnet step on the
// 100× generated world's highest-degree router toward every interface
// address in the world in turn: the lookup the forwarding walk makes
// at every hop, which almost always answers "not connected". The
// lookup reads a destination resolved beforehand, as a walk resolves
// it once per leg; the scan is the reference.
func BenchmarkConnectedStep(b *testing.B) {
	nw := worldgen.Generate(worldgen.Options{Scale: 100}).Net
	var hub *netsim.Node
	var addrs []netaddr.Addr
	for _, n := range nw.Nodes() {
		if hub == nil || len(n.Ifaces) > len(hub.Ifaces) {
			hub = n
		}
		for _, id := range n.Ifaces {
			addrs = append(addrs, nw.Iface(id).Addr)
		}
	}
	dsts := make([]netsim.DstInfo, len(addrs))
	for i, a := range addrs {
		dsts[i] = nw.ResolveDst(a)
	}
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, connectedSink = nw.ConnectedStepLeg(hub, &dsts[i%len(dsts)])
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, connectedSink = nw.ConnectedStepScan(hub, addrs[i%len(addrs)])
		}
	})
}
