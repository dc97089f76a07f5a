package netsim

import "afrixp/internal/netaddr"

// Hop exposes the resolved forwarding step to the external tests.
type Hop = hop

// EgressID returns the interface the hop leaves through.
func (h hop) EgressID() IfaceID { return h.egress.ID }

// ConnectedStep is connectedStep.
func (nw *Network) ConnectedStep(n *Node, dst netaddr.Addr) (Hop, bool) {
	return nw.connectedStep(n, dst)
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
			if slot, ok := ifc.lan.byAddr[dst]; ok {
				return nw.lanStep(ifc, slot)
			}
			return hop{}, false
		}
	}
	return hop{}, false
}

// LANs returns every switched fabric in the network.
func (nw *Network) LANs() []*LAN { return nw.lans }
