package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"afrixp/internal/observatory"
)

// Reader load: one open-loop client on one loopback keep-alive
// connection, a request due every 1/readerRate seconds whether or not
// the previous one has returned, cycling /links pages, /alerts
// following its next cursor, and /links/{id} on planted links.
const (
	readerRate    = 100 // requests per second
	readerPerPage = 100 // rows per /links and /alerts page
)

// seqHeader carries the request index so the handler wrapper can file
// its service time against the client's latency.
const seqHeader = "X-Perfbench-Seq"

// apiSample is one request as the reader saw it.
type apiSample struct {
	// lag is how late the generator sent it; latency runs from its
	// due time to the end of the response body.
	lag, latency time.Duration
	// handler is the service time inside Service.Handler().ServeHTTP;
	// negative when the request never reached the handler.
	handler time.Duration
	bytes   int64
	ok      bool
}

// timedHandler wraps the observatory API and records the ServeHTTP
// time of every sequenced request.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	dur  map[int]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil {
		h.mu.Lock()
		h.dur[seq] = d
		h.mu.Unlock()
	}
}

// reader is one campaign's API client. start serves the service on a
// loopback listener and begins the request schedule; stop ends both and
// returns every request's sample.
type reader struct {
	srv     *http.Server
	served  chan error
	handler *timedHandler
	client  *http.Client
	base    string
	planted map[string]bool

	quit chan struct{}
	done chan struct{}
	out  []apiSample

	// Mix state, touched only by the reader goroutine.
	page, pages int
	since       uint64
	seen        []string
	seenSet     map[string]bool
	nextSeen    int
}

func startReader(svc *observatory.Service, planted map[string]bool) (*reader, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &timedHandler{next: svc.Handler(), dur: make(map[int]time.Duration)}
	r := &reader{
		srv:     &http.Server{Handler: h},
		served:  make(chan error, 1),
		handler: h,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base:    "http://" + ln.Addr().String(),
		planted: planted,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		page:    1,
		pages:   1,
		seenSet: make(map[string]bool),
	}
	go func() { r.served <- r.srv.Serve(ln) }()
	go r.loop()
	return r, nil
}

// stop ends the schedule, waits for the in-flight request, shuts the
// server down and returns the samples with handler times attached.
func (r *reader) stop() []apiSample {
	close(r.quit)
	<-r.done
	r.client.CloseIdleConnections()
	r.srv.Close()
	<-r.served
	r.handler.mu.Lock()
	defer r.handler.mu.Unlock()
	for i := range r.out {
		if d, ok := r.handler.dur[i]; ok {
			r.out[i].handler = d
		}
	}
	return r.out
}

func (r *reader) loop() {
	defer close(r.done)
	interval := time.Second / readerRate
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-r.quit:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-r.quit:
				return
			default:
			}
		}
		r.out = append(r.out, r.do(i, due))
	}
}

// do sends request i of the mix and reads its reply to the end.
func (r *reader) do(i int, due time.Time) apiSample {
	s := apiSample{lag: time.Since(due), handler: -1}
	path, kind := r.next(i)
	req, err := http.NewRequest(http.MethodGet, r.base+path, nil)
	if err != nil {
		s.latency = time.Since(due)
		return s
	}
	req.Header.Set(seqHeader, strconv.Itoa(i))
	resp, err := r.client.Do(req)
	if err != nil {
		s.latency = time.Since(due)
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(due)
	s.bytes = int64(len(body))
	s.ok = err == nil && resp.StatusCode == http.StatusOK
	if s.ok {
		r.absorb(kind, body)
	}
	return s
}

const (
	kindLinks = iota
	kindAlerts
	kindLink
)

// next picks request i's path: /links pages, the alert log from the
// last cursor, and the detail of a planted link the table has listed
// (a /links page stands in until one has been seen).
func (r *reader) next(i int) (string, int) {
	switch i % 3 {
	case 1:
		return fmt.Sprintf("/alerts?since=%d&limit=%d", r.since, readerPerPage), kindAlerts
	case 2:
		if len(r.seen) > 0 {
			id := r.seen[r.nextSeen%len(r.seen)]
			r.nextSeen++
			return "/links/" + id, kindLink
		}
	}
	p := r.page
	r.page = r.page%r.pages + 1
	return fmt.Sprintf("/links?page=%d&per=%d", p, readerPerPage), kindLinks
}

// absorb advances the mix state from a reply: the /links page count
// and planted ids listed, the /alerts next cursor.
func (r *reader) absorb(kind int, body []byte) {
	switch kind {
	case kindLinks:
		var page struct {
			Pages int `json:"pages"`
			Links []struct {
				ID string `json:"id"`
			} `json:"links"`
		}
		if json.Unmarshal(body, &page) != nil {
			return
		}
		if page.Pages > 0 {
			r.pages = page.Pages
			if r.page > r.pages {
				r.page = 1
			}
		}
		for _, l := range page.Links {
			if r.planted[l.ID] && !r.seenSet[l.ID] {
				r.seenSet[l.ID] = true
				r.seen = append(r.seen, l.ID)
			}
		}
	case kindAlerts:
		var log struct {
			Next uint64 `json:"next"`
		}
		if json.Unmarshal(body, &log) == nil {
			r.since = log.Next
		}
	}
}
