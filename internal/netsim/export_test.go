package netsim

import (
	"fmt"

	"afrixp/internal/netaddr"
	"afrixp/internal/packet"
	"afrixp/internal/simclock"
)

// Hop exposes the resolved forwarding step to the external tests.
type Hop = hop

// EgressID returns the interface the hop leaves through.
func (h hop) EgressID() IfaceID { return h.egress.ID }

// DstInfo exposes a walk leg's resolved destination to the external
// tests.
type DstInfo = dstInfo

// ResolveDst is resolveDst.
func (nw *Network) ResolveDst(dst netaddr.Addr) DstInfo { return nw.resolveDst(dst) }

// ConnectedStepLeg is connectedStep.
func (nw *Network) ConnectedStepLeg(n *Node, di *DstInfo) (Hop, bool) {
	return nw.connectedStep(n, di)
}

// ConnectedStep is connectedStep toward dst, resolved as a walk leg
// would resolve it.
func (nw *Network) ConnectedStep(n *Node, dst netaddr.Addr) (Hop, bool) {
	di := nw.resolveDst(dst)
	return nw.connectedStep(n, &di)
}

// ConnectedStepScan is the interface scan connectedStep replaced: the
// oracle its lookups must match.
func (nw *Network) ConnectedStepScan(n *Node, dst netaddr.Addr) (Hop, bool) {
	for _, id := range n.Ifaces {
		ifc := nw.ifaces[id]
		if l := ifc.link; l != nil {
			other := nw.ifaces[l.other(ifc.ID)]
			if other.Addr == dst {
				return nw.linkStep(ifc)
			}
		}
		if ifc.lan != nil && ifc.lan.Prefix.Contains(dst) {
			for slot, att := range ifc.lan.Attachments {
				if nw.ifaces[att.Iface].Addr == dst {
					return nw.lanStep(ifc, slot)
				}
			}
			return hop{}, false
		}
	}
	return hop{}, false
}

// ResolveStep is resolveStep toward dst, resolved as a walk leg would
// resolve it.
func (nw *Network) ResolveStep(n *Node, dst netaddr.Addr) (Hop, bool) {
	di := nw.resolveDst(dst)
	return nw.resolveStep(n, &di)
}

// ResolveStepPerHop is the forwarding decision as it was made before
// walks resolved their destination once per leg: every call looks dst
// up afresh, scans n's interfaces for a connected subnet, and computes
// the interdomain step without the FIB cache. It is the oracle the
// leg-resolved step must match.
func (nw *Network) ResolveStepPerHop(n *Node, dst netaddr.Addr) (Hop, bool) {
	if h, ok := nw.ConnectedStepScan(n, dst); ok {
		return h, true
	}
	if n.Gateway != noIface {
		return nw.linkStep(nw.ifaces[n.Gateway])
	}
	origin, ok := nw.BGP.OriginOf(dst)
	if !ok {
		return hop{}, false
	}
	if origin == n.ASN {
		id, ok := nw.byAddr[dst]
		if !ok {
			return hop{}, false
		}
		target := nw.ifaces[id].Node
		if target == n.ID {
			return hop{}, false
		}
		return nw.intraASStepToNode(n, target)
	}
	return nw.interdomainStep(n, origin)
}

// ownsAddrPerHop reports whether any of n's interfaces carries addr.
func (nw *Network) ownsAddrPerHop(n *Node, addr netaddr.Addr) bool {
	id, ok := nw.byAddr[addr]
	return ok && nw.ifaces[id].Node == n.ID
}

// InjectPerHop is the packet walk of Inject with the destination
// looked up at every hop through ResolveStepPerHop: the oracle the
// leg-resolved walk must match in outcome, arrival time and response
// wire. It keeps no walk statistics.
func (nw *Network) InjectPerHop(src *Node, wire []byte, t simclock.Time) (Response, Outcome, error) {
	cur := src
	var arrival *Iface
	originated := true
	slot := -1
	nextWire := func() int {
		if slot == 0 {
			return 1
		}
		return 0
	}
	for hops := 0; hops < maxWalkHops; hops++ {
		ip, payload, err := packet.DecodeIPv4(wire)
		if err != nil {
			return Response{}, Unreachable, fmt.Errorf("netsim: hop %d at %s: %w", hops, cur.Name, err)
		}
		if nw.ownsAddrPerHop(cur, ip.Dst) {
			icmp, err := packet.DecodeICMP(payload)
			if err != nil {
				return Response{}, Unreachable, fmt.Errorf("netsim: non-ICMP payload at %s: %w", cur.Name, err)
			}
			if icmp.Type == packet.ICMPEcho {
				if cur.ICMPDown != nil && cur.ICMPDown(t) {
					return Response{}, Lost, nil
				}
				if cur.ICMPRateLimit != nil && !cur.ICMPRateLimit.Allow(t) {
					return Response{}, Lost, nil
				}
				if cur.ICMPDelay != nil {
					t = t.Add(cur.ICMPDelay(t))
				}
				if ip.RecordRoute != nil {
					ip.RecordRoute.Stamp(ip.Dst)
				}
				ns := nextWire()
				reply, err := nw.pkt.EchoReply(nw.injWire[ns][:0], ip, icmp, 64, cur.nextIPID())
				if err != nil {
					return Response{}, Unreachable, err
				}
				nw.injWire[ns] = reply
				wire, slot = reply, ns
				originated = true
				continue
			}
			if cur == src {
				return Response{Wire: wire, At: t, From: ip.Src}, Delivered, nil
			}
			return Response{}, Unreachable, nil
		}
		if !originated {
			if ip.TTL <= 1 {
				if cur.ICMPDown != nil && cur.ICMPDown(t) {
					return Response{}, Lost, nil
				}
				if cur.ICMPRateLimit != nil && !cur.ICMPRateLimit.Allow(t) {
					return Response{}, Lost, nil
				}
				respAddr := ip.Dst
				if arrival != nil {
					respAddr = arrival.Addr
				}
				if cur.ICMPDelay != nil {
					t = t.Add(cur.ICMPDelay(t))
				}
				ns := nextWire()
				te, err := nw.pkt.TimeExceeded(nw.injWire[ns][:0],
					packet.IPv4{TTL: 64, ID: cur.nextIPID(), Src: respAddr, Dst: ip.Src}, wire)
				if err != nil {
					return Response{}, Unreachable, err
				}
				nw.injWire[ns] = te
				wire, slot = te, ns
				originated = true
				continue
			}
			ip.TTL--
		}
		h, ok := nw.ResolveStepPerHop(cur, ip.Dst)
		if !ok {
			return Response{}, Unreachable, nil
		}
		if !originated && ip.RecordRoute != nil && cur.Gateway == noIface {
			ip.RecordRoute.Stamp(h.egress.Addr)
		}
		ns := nextWire()
		rewired, err := ip.SerializeTo(nw.injWire[ns][:0], payload)
		if err != nil {
			return Response{}, Unreachable, err
		}
		nw.injWire[ns] = rewired
		wire, slot = rewired, ns
		for _, p := range h.pipeSeq() {
			nw.pktCounter++
			exit, alive := p.Traverse(t, nw.pktCounter)
			if !alive {
				return Response{}, Lost, nil
			}
			t = exit
		}
		cur = nw.nodes[h.arrival.Node]
		arrival = h.arrival
		originated = false
	}
	return Response{}, Unreachable, fmt.Errorf("netsim: walk exceeded %d hops (loop?)", maxWalkHops)
}

// LANs returns every switched fabric in the network.
func (nw *Network) LANs() []*LAN { return nw.lans }
