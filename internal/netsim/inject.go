package netsim

import (
	"fmt"

	"afrixp/internal/netaddr"
	"afrixp/internal/packet"
	"afrixp/internal/simclock"
)

// Outcome classifies what happened to an injected packet.
type Outcome int8

// Injection outcomes.
const (
	// Delivered: a response packet reached the injecting node.
	Delivered Outcome = iota
	// Lost: the packet (or its response) was dropped by a queue, a
	// faulty pipe, or a downed link.
	Lost
	// Unreachable: some node had no route; the packet vanished.
	Unreachable
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Lost:
		return "lost"
	default:
		return "unreachable"
	}
}

// Response is the packet that came back to the injecting node.
type Response struct {
	// Wire is the raw response datagram. It aliases scratch owned by
	// the Network and is only valid until the next Inject call; decode
	// it (or copy it) before injecting again.
	Wire []byte
	// At is the virtual arrival time; RTT = At - send time.
	At simclock.Time
	// From is the source address of the response.
	From netaddr.Addr
}

// maxWalkHops bounds a single injection walk (request + response).
const maxWalkHops = 128

// Inject sends the wire-format datagram from node src at virtual time
// t and walks it (and any ICMP response it elicits) through the
// network. It returns the response when one arrives back at src.
//
// The walk is synchronous: background traffic is fluid (inside the
// pipes' queues), so only the probe itself moves hop by hop. The
// caller's wire buffer is never written; rewritten wires live in the
// network's double-buffered scratch (see Response.Wire).
func (nw *Network) Inject(src *Node, wire []byte, t simclock.Time) (Response, Outcome, error) {
	resp, out, err := nw.injectWalk(src, wire, t)
	// Accounting only — the walk's result is untouched, so telemetry
	// cannot perturb it. Plain counters: Inject is single-goroutine by
	// contract (the shared wire scratch already forbids concurrency).
	nw.injStats.Walks++
	switch {
	case err != nil:
		nw.injStats.Unreachable++
	case out == Delivered:
		nw.injStats.Delivered++
	case out == Lost:
		nw.injStats.Lost++
	default:
		nw.injStats.Unreachable++
	}
	return resp, out, err
}

// injectWalk is the uninstrumented packet walk behind Inject.
func (nw *Network) injectWalk(src *Node, wire []byte, t simclock.Time) (Response, Outcome, error) {
	cur := src
	var arrival *Iface
	var di dstInfo     // the current leg's destination
	resolved := false  // di describes a decoded wire
	originated := true // the current node created the current wire
	slot := -1         // injWire slot backing wire; -1 = caller's buffer

	// nextWire returns the scratch slot a rewritten wire may be
	// serialized into: the one not backing the wire being read.
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
		// A new leg starts when a reply or error is generated.
		if !resolved || ip.Dst != di.addr {
			di, resolved = nw.resolveDst(ip.Dst), true
		}

		if di.ownedBy(cur) {
			icmp, err := packet.DecodeICMP(payload)
			if err != nil {
				return Response{}, Unreachable, fmt.Errorf("netsim: non-ICMP payload at %s: %w", cur.Name, err)
			}
			if icmp.Type == packet.ICMPEcho {
				// An injected ICMP blackout (or deterministic rate
				// limit) silences the responder entirely.
				if cur.ICMPDown != nil && cur.ICMPDown(t) {
					return Response{}, Lost, nil
				}
				// Control-plane policing: a router out of ICMP budget
				// silently drops the request.
				if cur.ICMPRateLimit != nil && !cur.ICMPRateLimit.Allow(t) {
					return Response{}, Lost, nil
				}
				// Generate an echo reply (control-plane delay applies).
				if cur.ICMPDelay != nil {
					t = t.Add(cur.ICMPDelay(t))
				}
				// Host stacks record their own address when answering
				// a record-route probe (visible in ping -R output).
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
			// Echo reply or ICMP error arriving at its destination.
			if cur == src {
				return Response{Wire: wire, At: t, From: ip.Src}, Delivered, nil
			}
			// A response addressed to somebody else's address that we
			// own: swallow it (should not happen in practice).
			return Response{}, Unreachable, nil
		}

		// TTL check applies when forwarding somebody else's packet.
		if !originated {
			if ip.TTL <= 1 {
				if cur.ICMPDown != nil && cur.ICMPDown(t) {
					return Response{}, Lost, nil
				}
				if cur.ICMPRateLimit != nil && !cur.ICMPRateLimit.Allow(t) {
					return Response{}, Lost, nil
				}
				respAddr := ip.Dst // fallback; normally the arrival iface
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

		h, ok := nw.resolveStep(cur, &di)
		if !ok {
			return Response{}, Unreachable, nil
		}
		// Routers forwarding a packet stamp the Record Route option
		// with their egress address.
		if !originated && ip.RecordRoute != nil && cur.Gateway == noIface {
			ip.RecordRoute.Stamp(h.egress.Addr)
		}
		// Re-serialize into the free slot: payload aliases the wire
		// being replaced, so the write must not land on top of it.
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

// SrcAddr returns the address probes from this node should use: the
// node's first interface.
func (nw *Network) SrcAddr(n *Node) netaddr.Addr {
	if len(n.Ifaces) == 0 {
		panic(fmt.Sprintf("netsim: node %s has no interfaces", n.Name))
	}
	return nw.ifaces[n.Ifaces[0]].Addr
}
