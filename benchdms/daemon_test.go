package main

import (
	"math"
	"testing"
)

func TestParseGCLine(t *testing.T) {
	ev, ok := parseGCLine("gc 12 @3.104s 4%: 0.031+2.1+0.054 ms clock, 0.062+0.41/1.9/0.66+0.10 ms cpu, 58->61->30 MB, 60 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || math.Abs(ev.pauseMS-0.085) > 1e-12 || ev.heapMB != 58 {
		t.Errorf("parseGCLine = %+v, %v; want pause 0.085 ms, heap 58 MB", ev, ok)
	}
	if _, ok := parseGCLine("time=2026 level=info msg=serving"); ok {
		t.Error("parseGCLine accepted a log line")
	}
}
