package bgpsim

import "afrixp/internal/asrel"

// Routes is one destination's selected-route table, by dense AS index
// (the order of Graph.ASes plus origin-only ASes).
type Routes struct {
	NextHop []int32
	RType   []RouteType
	Dist    []int32
}

// RoutesFor returns the dense route computation's table toward dst,
// recomputed from scratch (the route cache is bypassed), or nil for an
// unknown destination.
func (n *Network) RoutesFor(dst asrel.ASN) *Routes {
	n.rebuild()
	delete(n.routeCache, dst)
	return export(n.routesTo(dst))
}

// ReferenceRoutesFor returns the same table computed by walking the
// relationship graph through Graph.Neighbors, Graph.Rel and the ASN
// index map — the oracle the dense adjacency snapshot must match.
func (n *Network) ReferenceRoutesFor(dst asrel.ASN) *Routes {
	n.rebuild()
	return export(n.referenceRoutesTo(dst))
}

func export(dr *destRoutes) *Routes {
	if dr == nil {
		return nil
	}
	return &Routes{NextHop: dr.nextHop, RType: dr.rtype, Dist: dr.dist}
}

// referenceRoutesTo is the graph-walking route computation: the same
// three phases as routesTo, reading each edge through Graph.Rel and
// each neighbour's index through the idx map.
func (n *Network) referenceRoutesTo(dst asrel.ASN) *destRoutes {
	di, ok := n.idx[dst]
	if !ok {
		return nil
	}
	v := len(n.asns)
	dr := &destRoutes{
		nextHop: make([]int32, v),
		rtype:   make([]RouteType, v),
		dist:    make([]int32, v),
	}
	for i := range dr.nextHop {
		dr.nextHop[i] = -1
		dr.rtype[i] = RouteNone
		dr.dist[i] = 1 << 30
	}
	dr.rtype[di] = RouteSelf
	dr.dist[di] = 0
	dr.nextHop[di] = int32(di)

	maxD := 2 * v
	var s routeScratch
	s.grab(v, maxD)
	queue := append(s.queue, di)
	custDist, custHop := s.custDist, s.custHop
	custDist[di] = 0
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		ax := n.asns[x]
		for _, b := range n.graph.Neighbors(ax) {
			r := n.graph.Rel(ax, b)
			if r != asrel.Provider && r != asrel.Sibling {
				continue
			}
			bi := n.idx[b]
			if custDist[bi] > custDist[x]+1 {
				custDist[bi] = custDist[x] + 1
				custHop[bi] = int32(x)
				queue = append(queue, bi)
			}
		}
	}
	for i := 0; i < v; i++ {
		if i != di && custHop[i] >= 0 {
			dr.rtype[i] = RouteCustomer
			dr.dist[i] = custDist[i]
			dr.nextHop[i] = custHop[i]
		}
	}

	for i := 0; i < v; i++ {
		if dr.rtype[i] == RouteSelf || dr.rtype[i] == RouteCustomer {
			continue
		}
		ai := n.asns[i]
		best := int32(1 << 30)
		var hop int32 = -1
		for _, b := range n.graph.Neighbors(ai) {
			if n.graph.Rel(ai, b) != asrel.Peer {
				continue
			}
			bi := n.idx[b]
			if custDist[bi] < best {
				best = custDist[bi]
				hop = int32(bi)
			}
		}
		if hop >= 0 {
			dr.rtype[i] = RoutePeer
			dr.dist[i] = best + 1
			dr.nextHop[i] = hop
		}
	}

	buckets := s.buckets
	for i := 0; i < v; i++ {
		if dr.rtype[i] != RouteNone {
			d := int(dr.dist[i])
			if d <= maxD {
				buckets[d] = append(buckets[d], i)
			}
		}
	}
	provDist, provHop := s.provDist, s.provHop
	for d := 0; d <= maxD; d++ {
		for _, x := range buckets[d] {
			settled := dr.rtype[x] != RouteNone && int(dr.dist[x]) < d
			if settled {
				continue
			}
			if provDist[x] < int32(d) {
				continue
			}
			ax := n.asns[x]
			for _, b := range n.graph.Neighbors(ax) {
				r := n.graph.Rel(ax, b)
				if r != asrel.Customer && r != asrel.Sibling {
					continue
				}
				bi := n.idx[b]
				if dr.rtype[bi] != RouteNone {
					continue
				}
				if provDist[bi] > int32(d)+1 {
					provDist[bi] = int32(d) + 1
					provHop[bi] = int32(x)
					if d+1 <= maxD {
						buckets[d+1] = append(buckets[d+1], bi)
					}
				}
			}
		}
	}
	for i := 0; i < v; i++ {
		if dr.rtype[i] == RouteNone && provHop[i] >= 0 {
			dr.rtype[i] = RouteProvider
			dr.dist[i] = provDist[i]
			dr.nextHop[i] = provHop[i]
		}
	}
	return dr
}
