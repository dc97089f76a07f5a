package bgpsim_test

import (
	"reflect"
	"testing"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/scenario"
	"afrixp/internal/worldgen"
)

// assertRoutesMatchReference checks the dense route computation
// against the graph-walking reference for every destination AS and
// returns the dense tables by destination.
func assertRoutesMatchReference(t *testing.T, bgp *bgpsim.Network, ases []asrel.ASN) map[asrel.ASN]*bgpsim.Routes {
	t.Helper()
	out := make(map[asrel.ASN]*bgpsim.Routes, len(ases))
	for _, dst := range ases {
		got, want := bgp.RoutesFor(dst), bgp.ReferenceRoutesFor(dst)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("routes toward %v differ from the reference", dst)
		}
		out[dst] = got
	}
	return out
}

// TestRoutesMatchReferenceOnGeneratedWorlds runs the oracle over every
// destination of the 10× and 100× generated AS graphs, whose IXP
// content networks and transits have degrees in the hundreds.
func TestRoutesMatchReferenceOnGeneratedWorlds(t *testing.T) {
	for _, scale := range []float64{10, 100} {
		if scale > 10 && testing.Short() {
			continue
		}
		w := worldgen.Generate(worldgen.Options{Scale: scale})
		routes := assertRoutesMatchReference(t, w.BGP, w.Graph.ASes())
		routed := 0
		for _, r := range routes {
			for _, rt := range r.RType {
				if rt != bgpsim.RouteNone && rt != bgpsim.RouteSelf {
					routed++
				}
			}
		}
		if routed == 0 {
			t.Fatalf("scale %v: no routes computed", scale)
		}
	}
}

// TestRoutesMatchReferenceAfterDepeering removes links the way the
// GIXA de-peering event does (Graph.RemoveLink, then InvalidateRoutes)
// and checks the rebuilt adjacency snapshot against the reference: a
// stale snapshot would keep routing over the removed edges.
func TestRoutesMatchReferenceAfterDepeering(t *testing.T) {
	w := worldgen.Generate(worldgen.Options{Scale: 10})
	ases := w.Graph.ASes()
	before := assertRoutesMatchReference(t, w.BGP, ases)

	hub := highestDegreeAS(w)
	removed := 0
	for _, b := range append([]asrel.ASN(nil), w.Graph.Neighbors(hub)...) {
		if r := w.Graph.Rel(hub, b); r == asrel.Peer || r == asrel.Provider {
			w.Graph.RemoveLink(hub, b)
			removed++
		}
	}
	if removed == 0 {
		t.Fatalf("%v has no peer or provider links to remove", hub)
	}
	w.Net.InvalidateRoutes()
	after := assertRoutesMatchReference(t, w.BGP, ases)
	if reflect.DeepEqual(before, after) {
		t.Fatalf("removing %d links of %v changed no route", removed, hub)
	}
}

func highestDegreeAS(w *scenario.World) asrel.ASN {
	var best asrel.ASN
	for _, a := range w.Graph.ASes() {
		if w.Graph.Degree(a) > w.Graph.Degree(best) {
			best = a
		}
	}
	return best
}

var routesSink *bgpsim.Routes

// BenchmarkRoutesTo times one destination's route computation on the
// 100× generated AS graph, cycling through every destination.
func BenchmarkRoutesTo(b *testing.B) {
	w := worldgen.Generate(worldgen.Options{Scale: 100})
	ases := w.Graph.ASes()
	w.BGP.RoutesFor(ases[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routesSink = w.BGP.RoutesFor(ases[i%len(ases)])
	}
}
