package main

import (
	"testing"

	"fairdms/internal/obs"
)

func span(name string, parent int, start, dur int64) obs.SpanDump {
	return obs.SpanDump{Name: name, Parent: parent, StartUS: start, DurUS: dur}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []obs.SpanDump{
		span("request", -1, 0, 100),    // 0
		span("embed", 0, 10, 20),       // 1: [10,30)
		span("index_probe", 0, 30, 50), // 2: [30,80)
	}
	want := []int64{30, 20, 50}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClips(t *testing.T) {
	spans := []obs.SpanDump{
		span("store_lookup", -1, 100, 100), // 0: [100,200)
		span("store_sample", 0, 110, 40),   // 1: [110,150)
		span("store_sample", 0, 120, 50),   // 2: [120,170), overlaps 1
		span("store_fetch", 0, 190, 30),    // 3: [190,220), clipped to 200
		span("decode", 3, 195, 5),          // 4: grandchild, not subtracted from 0
	}
	self := selfTimes(spans)
	// Children cover [110,170) and [190,200): 70 of 100 µs.
	if self[0] != 30 {
		t.Errorf("parent self = %d, want 30", self[0])
	}
	if self[3] != 25 {
		t.Errorf("store_fetch self = %d, want 25", self[3])
	}
}

func TestSpanBookWaitAndEndpointSplit(t *testing.T) {
	b := newSpanBook()
	b.addClient("POST /v1/data/nearest", obs.TraceDump{Spans: []obs.SpanDump{
		span("client_request", -1, 0, 1000),
		span("http_roundtrip", 0, 10, 980),
		span("request", 1, 200, 600),
		span("embed", 2, 250, 100),
		span("index_probe", 2, 350, 400),
	}})
	if got := float64(b.waitUS); got != 380 || b.roundTrips != 1 {
		t.Errorf("wait = %v µs over %d round trips, want 380 over 1", got, b.roundTrips)
	}
	if got := b.selfMS("request.data.nearest"); got != 0.1 {
		t.Errorf("request self = %v ms, want 0.1", got)
	}
	if got := b.selfMS("embed", "index_probe"); got != 0.5 {
		t.Errorf("embed+probe self = %v ms, want 0.5", got)
	}
	if b.spans("request.data.nearest") != 1 {
		t.Errorf("request spans = %d, want 1", b.spans("request.data.nearest"))
	}
}

func TestEndpointOf(t *testing.T) {
	for op, want := range map[string]string{
		"POST /v1/data/ingest:batch":    "data.ingest_batch",
		"POST /v1/data/nearest":         "data.nearest",
		"POST /v1/models/recommend":     "models.recommend",
		"GET /v1/models/m-1/checkpoint": "models.checkpoint",
		"POST /v1/train":                "train.submit",
		"GET /v1/train/job-000003":      "train.get",
		"POST /v1/data/certainty":       "data.certainty",
	} {
		if got := endpointOf(op); got != want {
			t.Errorf("endpointOf(%q) = %q, want %q", op, got, want)
		}
	}
}
