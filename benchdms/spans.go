package main

import (
	"sort"
	"strings"
	"sync"

	"fairdms/internal/obs"
)

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children, in microseconds. Children that overlap
// (concurrent fan-out) are counted once, and a child reaching outside its
// parent is clipped to the parent's interval.
func selfTimes(spans []obs.SpanDump) []int64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(spans) && sp.Parent != i {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		lo, hi := sp.StartUS, sp.StartUS+sp.DurUS
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].StartUS, lo), min(spans[c].StartUS+spans[c].DurUS, hi)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64 = 0, lo
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[i] = sp.DurUS - covered
	}
	return self
}

// spanName keys a span for aggregation: the server's "request" span is
// split by endpoint, every other span aggregates by its name alone.
func spanName(sp obs.SpanDump, endpoint string) string {
	if sp.Name == "request" && endpoint != "" {
		return "request." + endpoint
	}
	return sp.Name
}

// tracedDump is one retained span tree: a client request with the
// server's tree grafted under it, or a train job's tree from /debug/slowz.
type tracedDump struct {
	Kind     string        `json:"kind"` // "client" or "train_job"
	Endpoint string        `json:"endpoint"`
	Trace    obs.TraceDump `json:"trace"`
}

// spanBook keeps every span tree of a traced phase in memory and sums
// self time by span name. Safe for concurrent use.
type spanBook struct {
	mu     sync.Mutex
	dumps  []tracedDump
	selfUS map[string]int64
	count  map[string]int64
	// waitUS sums, over round trips that carried a server tree, the round
	// trip minus the server's request span: the client's encode, the
	// network and the kernel on both sides.
	waitUS     int64
	roundTrips int64
}

func newSpanBook() *spanBook {
	return &spanBook{selfUS: make(map[string]int64), count: make(map[string]int64)}
}

// reset forgets everything recorded so far.
func (b *spanBook) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dumps, b.waitUS, b.roundTrips = nil, 0, 0
	clear(b.selfUS)
	clear(b.count)
}

// addClient records the merged tree of one client request. op is the
// client's "METHOD /path" label.
func (b *spanBook) addClient(op string, d obs.TraceDump) {
	b.add(tracedDump{Kind: "client", Endpoint: endpointOf(op), Trace: d})
}

// addJob records a train job's tree.
func (b *spanBook) addJob(d obs.TraceDump) {
	b.add(tracedDump{Kind: "train_job", Endpoint: "train.job", Trace: d})
}

func (b *spanBook) add(td tracedDump) {
	spans := td.Trace.Spans
	self := selfTimes(spans)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dumps = append(b.dumps, td)
	for i, sp := range spans {
		name := spanName(sp, td.Endpoint)
		b.selfUS[name] += self[i]
		b.count[name]++
		if sp.Name != "http_roundtrip" {
			continue
		}
		var server int64
		found := false
		for _, c := range spans {
			if c.Parent == i && c.Name == "request" {
				server += c.DurUS
				found = true
			}
		}
		if found {
			b.waitUS += sp.DurUS - server
			b.roundTrips++
		}
	}
}

// selfMS returns the summed self time of the named spans in milliseconds.
func (b *spanBook) selfMS(names ...string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var us int64
	for _, n := range names {
		us += b.selfUS[n]
	}
	return float64(us) / 1e3
}

// spans returns how many spans of the given name were recorded.
func (b *spanBook) spans(name string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count[name]
}

// endpointOf maps a client "METHOD /path" label to the server's endpoint
// name (the label dmsd's /statsz and /metricsz use).
func endpointOf(op string) string {
	method, path, _ := strings.Cut(op, " ")
	switch {
	case path == "/v1/data/ingest:batch":
		return "data.ingest_batch"
	case strings.HasPrefix(path, "/v1/data/"):
		return "data." + strings.TrimPrefix(path, "/v1/data/")
	case path == "/v1/models/recommend":
		return "models.recommend"
	case strings.HasPrefix(path, "/v1/models/") && strings.HasSuffix(path, "/checkpoint"):
		return "models.checkpoint"
	case path == "/v1/models" && method == "POST":
		return "models.add"
	case path == "/v1/train" && method == "POST":
		return "train.submit"
	case strings.HasPrefix(path, "/v1/train/") && method == "GET":
		return "train.get"
	}
	return path
}
