package netsim

import (
	"afrixp/internal/asrel"
	"afrixp/internal/netaddr"
)

// hop is one resolved forwarding step: the local egress interface, the
// interface the packet arrives on at the next node, and the pipes it
// traverses in order (one for p2p, two for a LAN crossing). The pipe
// list is a fixed-size array — hop values are built on every forwarded
// packet, and a heap-allocated slice here was one of the largest
// allocation sources in a campaign.
type hop struct {
	egress  *Iface
	arrival *Iface
	pipes   [2]*Pipe
	npipes  int8
}

// pipeSeq returns the pipes the hop traverses, in order.
func (h *hop) pipeSeq() []*Pipe { return h.pipes[:h.npipes] }

// fibEntry caches a node's forwarding decision toward a destination
// origin AS.
type fibEntry struct {
	egress  IfaceID
	arrival IfaceID
}

// dstInfo holds what a forwarding step needs to know about a
// destination that does not depend on the node forwarding it: the
// interface that owns the address and the AS originating its longest
// covering prefix. A walk resolves it once per leg — whenever the
// packet's destination changes — instead of at every hop.
type dstInfo struct {
	addr netaddr.Addr
	// owner carries addr; nil when no interface does.
	owner *Iface
	// origin is the BGP origin of addr; routed is false when no
	// announced prefix covers it.
	origin asrel.ASN
	routed bool
}

// resolveDst looks up dst's owner and BGP origin.
func (nw *Network) resolveDst(dst netaddr.Addr) dstInfo {
	di := dstInfo{addr: dst}
	if id, ok := nw.byAddr[dst]; ok {
		di.owner = nw.ifaces[id]
	}
	di.origin, di.routed = nw.BGP.OriginOf(dst)
	return di
}

// ownedBy reports whether one of n's interfaces carries the address.
func (di *dstInfo) ownedBy(n *Node) bool {
	return di.owner != nil && di.owner.Node == n.ID
}

// resolveStep computes the forwarding step node n takes toward the
// destination di describes. ok is false when n has no route (the
// packet is silently dropped and the probe times out, as on the real
// Internet).
func (nw *Network) resolveStep(n *Node, di *dstInfo) (hop, bool) {
	// 1. Directly connected subnets and LAN neighbors.
	if h, ok := nw.connectedStep(n, di); ok {
		return h, true
	}
	// 2. Stub hosts forward everything else to their gateway.
	if n.Gateway != noIface {
		return nw.linkStep(nw.ifaces[n.Gateway])
	}
	// 3. BGP: where does the destination's origin AS live?
	if !di.routed {
		return hop{}, false
	}
	origin := di.origin
	if origin == n.ASN {
		return nw.intraASStep(n, di)
	}
	// 4. Interdomain: consult the (cached) FIB.
	if n.fibVersion != nw.version || n.fib == nil {
		n.fib = make(map[asrel.ASN]fibEntry)
		n.fibVersion = nw.version
	}
	if e, ok := n.fib[origin]; ok {
		if e.egress == noIface {
			return hop{}, false
		}
		return nw.stepVia(nw.ifaces[e.egress], nw.ifaces[e.arrival])
	}
	h, ok := nw.interdomainStep(n, origin)
	if !ok {
		n.fib[origin] = fibEntry{egress: noIface}
		return hop{}, false
	}
	n.fib[origin] = fibEntry{egress: h.egress.ID, arrival: h.arrival.ID}
	return h, true
}

// connectedStep handles destinations on subnets n is directly attached
// to. It answers exactly as a scan of n.Ifaces in order would, taking
// the first interface that either faces dst across a point-to-point
// link or sits on a LAN whose prefix holds dst (an on-LAN address with
// no owner is dead), but finds both candidates by lookup: dst's owning
// interface names the only link that can match, and n's few LAN ports
// are checked directly. When both match, the one earlier in n.Ifaces
// wins.
func (nw *Network) connectedStep(n *Node, di *dstInfo) (hop, bool) {
	var p2p *Iface
	if di.owner != nil {
		if l := di.owner.link; l != nil {
			if near := nw.ifaces[l.other(di.owner.ID)]; near.Node == n.ID {
				p2p = near
			}
		}
	}
	for _, id := range n.lanIfaces {
		ifc := nw.ifaces[id]
		if !ifc.lan.Prefix.Contains(di.addr) {
			continue
		}
		if p2p != nil && p2p.pos < ifc.pos {
			break
		}
		// Only the owner's own attachment puts an address on a LAN.
		if di.owner != nil && di.owner.lan == ifc.lan {
			return nw.lanStep(ifc, di.owner.lanSlot)
		}
		return hop{}, false // on-LAN address with no owner: dead
	}
	if p2p != nil {
		return nw.linkStep(p2p)
	}
	return hop{}, false
}

// linkStep builds the hop across ifc's point-to-point link.
func (nw *Network) linkStep(ifc *Iface) (hop, bool) {
	l := ifc.link
	if l == nil {
		return hop{}, false
	}
	var pipe *Pipe
	var arrival IfaceID
	if l.A == ifc.ID {
		pipe, arrival = l.Pipes[0], l.B
	} else {
		pipe, arrival = l.Pipes[1], l.A
	}
	return hop{egress: ifc, arrival: nw.ifaces[arrival], pipes: [2]*Pipe{pipe}, npipes: 1}, true
}

// lanStep builds the hop across ifc's LAN to the attachment at slot.
func (nw *Network) lanStep(ifc *Iface, slot int) (hop, bool) {
	lan := ifc.lan
	src := lan.Attachments[ifc.lanSlot]
	dst := lan.Attachments[slot]
	return hop{
		egress:  ifc,
		arrival: nw.ifaces[dst.Iface],
		pipes:   [2]*Pipe{src.ToFabric, dst.FromFabric},
		npipes:  2,
	}, true
}

// stepVia rebuilds a hop from cached egress/arrival interfaces.
func (nw *Network) stepVia(egress, arrival *Iface) (hop, bool) {
	if egress.link != nil {
		return nw.linkStep(egress)
	}
	if egress.lan != nil {
		return nw.lanStep(egress, arrival.lanSlot)
	}
	return hop{}, false
}

// interdomainStep finds n's forwarding step toward origin, possibly
// via another border router of n's AS.
func (nw *Network) interdomainStep(n *Node, origin asrel.ASN) (hop, bool) {
	nhAS, _, ok := nw.BGP.NextHopAS(n.ASN, origin)
	if !ok || nhAS == n.ASN {
		return hop{}, false
	}
	// Scenario-authored egress preference (asymmetry ablation).
	if pref, ok := n.PreferredEgress[nhAS]; ok {
		if h, ok := nw.adjacencyVia(nw.ifaces[pref], nhAS); ok {
			return h, true
		}
	}
	// Does n itself have an adjacency to nhAS?
	if h, ok := nw.adjacencyToAS(n, nhAS); ok {
		return h, true
	}
	// Otherwise route toward a border router of our AS that does.
	for _, r := range nw.routersByAS[n.ASN] {
		if r == n {
			continue
		}
		if _, ok := nw.adjacencyToAS(r, nhAS); ok {
			if h, ok := nw.intraASStepToNode(n, r.ID); ok {
				return h, true
			}
		}
	}
	return hop{}, false
}

// adjacencyToAS scans n's interfaces for a direct adjacency to an AS.
// Interfaces are scanned in creation order, so selection is
// deterministic.
func (nw *Network) adjacencyToAS(n *Node, as asrel.ASN) (hop, bool) {
	for _, id := range n.Ifaces {
		if h, ok := nw.adjacencyVia(nw.ifaces[id], as); ok {
			return h, true
		}
	}
	return hop{}, false
}

// adjacencyVia checks one interface for an adjacency to the given AS.
func (nw *Network) adjacencyVia(ifc *Iface, as asrel.ASN) (hop, bool) {
	if l := ifc.link; l != nil {
		other := nw.ifaces[l.other(ifc.ID)]
		if nw.nodes[other.Node].ASN == as {
			return nw.linkStep(ifc)
		}
	}
	if lan := ifc.lan; lan != nil {
		// Lowest-addressed attachment of the target AS wins.
		bestSlot, found := -1, false
		var bestAddr netaddr.Addr
		for slot := range lan.Attachments {
			att := nw.ifaces[lan.Attachments[slot].Iface]
			if nw.nodes[att.Node].ASN == as {
				if !found || att.Addr < bestAddr {
					bestSlot, bestAddr, found = slot, att.Addr, true
				}
			}
		}
		if found {
			return nw.lanStep(ifc, bestSlot)
		}
	}
	return hop{}, false
}

// intraASStep routes within n's AS toward the node owning the
// destination.
func (nw *Network) intraASStep(n *Node, di *dstInfo) (hop, bool) {
	if di.owner == nil {
		return hop{}, false
	}
	target := di.owner.Node
	if target == n.ID {
		return hop{}, false // local delivery is handled by the caller
	}
	return nw.intraASStepToNode(n, target)
}

// intraASStepToNode finds the next hop on the shortest intra-AS path
// from n to the target node, using only links internal to the AS.
func (nw *Network) intraASStepToNode(n *Node, target NodeID) (hop, bool) {
	if nw.nodes[target].ASN != n.ASN {
		return hop{}, false
	}
	// BFS backwards from target so the first neighbor reached from n
	// lies on a shortest path.
	prevIface := map[NodeID]IfaceID{target: noIface}
	queued := []NodeID{target}
	for len(queued) > 0 {
		cur := queued[0]
		queued = queued[1:]
		if cur == n.ID {
			break
		}
		for _, id := range nw.nodes[cur].Ifaces {
			ifc := nw.ifaces[id]
			l := ifc.link
			if l == nil {
				continue
			}
			other := nw.ifaces[l.other(ifc.ID)]
			on := nw.nodes[other.Node]
			if on.ASN != n.ASN {
				continue
			}
			if _, seen := prevIface[on.ID]; !seen {
				// From on, the step toward target leaves via `other`.
				prevIface[on.ID] = other.ID
				queued = append(queued, on.ID)
			}
		}
	}
	egress, ok := prevIface[n.ID]
	if !ok || egress == noIface {
		return hop{}, false
	}
	return nw.linkStep(nw.ifaces[egress])
}

// other returns the opposite endpoint of a link.
func (l *Link) other(id IfaceID) IfaceID {
	if l.A == id {
		return l.B
	}
	return l.A
}
