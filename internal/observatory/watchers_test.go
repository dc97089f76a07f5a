package observatory

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afrixp/internal/simclock"
)

// fakeStream is a minimal Flusher-capable ResponseWriter for driving
// handleStream without TCP: thousands of watchers become goroutines,
// not file descriptors. Event parsing rides on the handler's one
// Write per Fprintf.
type fakeStream struct {
	hdr      http.Header
	hello    atomic.Bool
	barriers atomic.Int64
	dropped  atomic.Int64
	onFirst  func()
}

func newFakeStream(onFirst func()) *fakeStream {
	return &fakeStream{hdr: make(http.Header), onFirst: onFirst}
}

func (f *fakeStream) Header() http.Header  { return f.hdr }
func (f *fakeStream) WriteHeader(code int) {}
func (f *fakeStream) Flush()               {}
func (f *fakeStream) Write(p []byte) (int, error) {
	s := string(p)
	switch {
	case strings.HasPrefix(s, "event: hello"):
		f.hello.Store(true)
	case strings.HasPrefix(s, "event: barrier"):
		if f.barriers.Add(1) == 1 && f.onFirst != nil {
			f.onFirst()
		}
	case strings.HasPrefix(s, "event: dropped"):
		f.dropped.Add(1)
	}
	return len(p), nil
}

// TestThousandConcurrentWatchers races ≥1000 SSE watchers plus 200
// long-pollers against a barrier feeder hammering ObserveBarrier —
// the acceptance-scale fan-out, run under -race in CI. Every watcher
// must receive its hello and at least one barrier event; every
// long-poller must be released by a barrier wake; and teardown must
// drain the hub back to zero subscribers.
func TestThousandConcurrentWatchers(t *testing.T) {
	const (
		nSSE  = 1000
		nPoll = 200
	)
	svc := New(Config{})
	svc.hub = newHub(8)
	handler := svc.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Feeder: one barrier every loop until told to stop. No links are
	// watched — barrier heartbeats alone must be enough to feed SSE
	// watchers and release long-pollers.
	stop := make(chan struct{})
	var feederDone sync.WaitGroup
	feederDone.Add(1)
	go func() {
		defer feederDone.Done()
		at := simclock.Date(2016, time.July, 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			svc.ObserveBarrier(at)
			at = at.Add(5 * time.Minute)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var sawBarrier atomic.Int64
	writers := make([]*fakeStream, nSSE)
	var wg sync.WaitGroup
	for i := range writers {
		w := newFakeStream(func() { sawBarrier.Add(1) })
		writers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/stream", nil).WithContext(ctx)
			handler.ServeHTTP(w, req)
		}()
	}

	var pollOK atomic.Int64
	for i := 0; i < nPoll; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, "/alerts?wait=1", nil).WithContext(ctx)
			handler.ServeHTTP(rec, req)
			if rec.Code == http.StatusOK &&
				strings.Contains(rec.Body.String(), Schema) {
				pollOK.Add(1)
			}
		}()
	}

	deadline := time.Now().Add(60 * time.Second)
	for sawBarrier.Load() < nSSE {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d SSE watchers saw a barrier event in time", sawBarrier.Load(), nSSE)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	close(stop)
	feederDone.Wait()

	for i, w := range writers {
		if !w.hello.Load() {
			t.Fatalf("watcher %d never received the hello event", i)
		}
		if w.barriers.Load() == 0 {
			t.Fatalf("watcher %d never received a barrier event", i)
		}
	}
	if got := pollOK.Load(); got != nPoll {
		t.Errorf("%d/%d long-pollers returned a valid response", got, nPoll)
	}
	if n := svc.hub.active(); n != 0 {
		t.Errorf("hub still reports %d subscribers after teardown", n)
	}
}

// TestHubBoundedSubscriber pins the bounded-broadcast contract
// directly: a subscriber that never drains holds at most its channel
// depth in payload references, every overflow is counted in its drop counter,
// and the publisher is never blocked.
func TestHubBoundedSubscriber(t *testing.T) {
	svc := New(Config{})
	svc.hub = newHub(4)
	sub := svc.hub.subscribe()
	defer svc.hub.unsubscribe(sub)

	if cap(sub.ch) != 4 {
		t.Fatalf("subscriber channel cap = %d, want 4", cap(sub.ch))
	}
	at := simclock.Date(2016, time.July, 20)
	const barriers = 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < barriers; i++ {
			svc.ObserveBarrier(at)
			at = at.Add(5 * time.Minute)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a full subscriber channel")
	}
	if n := len(sub.ch); n > cap(sub.ch) {
		t.Errorf("subscriber buffered %d messages, cap %d", n, cap(sub.ch))
	}
	if got := sub.dropped.Load(); got != barriers-4 {
		t.Errorf("dropped counter = %d, want %d (every overflow counted)", got, barriers-4)
	}
	// A draining subscriber's next event reports the drops on the wire.
	w := newFakeStream(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for w.barriers.Load() == 0 {
			svc.ObserveBarrier(at)
			at = at.Add(5 * time.Minute)
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	req := httptest.NewRequest(http.MethodGet, "/stream", nil).WithContext(ctx)
	svc.Handler().ServeHTTP(w, req)
	if !w.hello.Load() || w.barriers.Load() == 0 {
		t.Error("draining watcher saw no events")
	}
}
