package observatory

import (
	"sync"
	"sync/atomic"
)

// hubMsg is one barrier-batched update: a pre-encoded SSE payload
// shared by every subscriber (encoded once per barrier, never per
// subscriber).
type hubMsg struct {
	seq     uint64
	payload []byte
}

// subscriber is one attached /stream consumer. Its channel is bounded:
// a consumer slower than the barrier cadence loses whole batches —
// counted in dropped, never blocking the publisher. Memory per
// subscriber is therefore bounded by subscriberBuf payload references
// regardless of how far behind it falls.
type subscriber struct {
	ch      chan hubMsg
	dropped atomic.Uint64
}

// hub is the bounded broadcast fan-out between the engine's barrier
// feed and the HTTP side: SSE subscribers get pre-encoded payloads
// over bounded channels; long-pollers wait on a broadcast channel
// closed at each barrier. With no subscribers and no waiters every
// hub operation is a few atomic/mutex instructions and zero
// allocations — the feed path's steady-state guarantee.
type hub struct {
	buf   int
	nsubs atomic.Int64

	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	notify  chan struct{}
	waiters int
}

func newHub(buf int) *hub {
	return &hub{
		buf:    buf,
		subs:   make(map[*subscriber]struct{}),
		notify: make(chan struct{}),
	}
}

// active is the current subscriber count — the publisher's fast path
// gate: no subscribers, no payload encoding.
func (h *hub) active() int { return int(h.nsubs.Load()) }

func (h *hub) subscribe() *subscriber {
	sub := &subscriber{ch: make(chan hubMsg, h.buf)}
	h.mu.Lock()
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	h.nsubs.Add(1)
	return sub
}

func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
	h.nsubs.Add(-1)
}

// publish fans one payload out to every subscriber, non-blocking: a
// full channel counts a drop for that subscriber and moves on.
func (h *hub) publish(seq uint64, payload []byte) {
	h.mu.Lock()
	for sub := range h.subs {
		select {
		case sub.ch <- hubMsg{seq: seq, payload: payload}:
		default:
			sub.dropped.Add(1)
		}
	}
	h.wakeLocked()
	h.mu.Unlock()
}

// wake releases long-poll waiters (if any) without publishing a
// payload — called at every barrier so /alerts?wait=1 sees progress
// even when no alert fired. Allocation-free when no one is waiting.
func (h *hub) wake() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.wakeLocked()
	h.mu.Unlock()
}

func (h *hub) wakeLocked() {
	if h.waiters > 0 {
		close(h.notify)
		h.notify = make(chan struct{})
		h.waiters = 0
	}
}

// waitCh registers the caller as a long-poll waiter and returns the
// channel the next barrier will close.
func (h *hub) waitCh() <-chan struct{} {
	h.mu.Lock()
	h.waiters++
	ch := h.notify
	h.mu.Unlock()
	return ch
}
