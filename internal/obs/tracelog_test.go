package obs

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func boolPtr(b bool) *bool { return &b }

func TestTraceLogQuery(t *testing.T) {
	l := NewTraceLog(8)
	at := time.Unix(1754649600, 0)
	l.Add(TraceEntry{Op: "data.nearest", DurMS: 2, At: at})
	l.Add(TraceEntry{Op: "data.nearest", DurMS: 30, At: at, Error: "shard down"})
	l.Add(TraceEntry{Op: "models.recommend", DurMS: 12, At: at, Degraded: true})

	all, err := l.Query(TraceQuery{})
	if err != nil || len(all) != 3 {
		t.Fatalf("Query all = %d, %v", len(all), err)
	}
	if all[0].Op != "models.recommend" {
		t.Errorf("not newest-first: %+v", all[0])
	}

	byOp, _ := l.Query(TraceQuery{Op: "data.nearest"})
	if len(byOp) != 2 {
		t.Errorf("op filter = %d, want 2", len(byOp))
	}
	slow, _ := l.Query(TraceQuery{MinMS: 10})
	if len(slow) != 2 {
		t.Errorf("min_ms filter = %d, want 2", len(slow))
	}
	errored, _ := l.Query(TraceQuery{Error: boolPtr(true)})
	if len(errored) != 1 || errored[0].Error != "shard down" {
		t.Errorf("error filter = %+v", errored)
	}
	clean, _ := l.Query(TraceQuery{Error: boolPtr(false)})
	if len(clean) != 2 {
		t.Errorf("clean filter = %d, want 2", len(clean))
	}
	degraded, _ := l.Query(TraceQuery{Degraded: boolPtr(true)})
	if len(degraded) != 1 || degraded[0].Op != "models.recommend" {
		t.Errorf("degraded filter = %+v", degraded)
	}
}

func TestTraceLogEviction(t *testing.T) {
	l := NewTraceLog(3)
	for i := 0; i < 5; i++ {
		l.Add(TraceEntry{Op: fmt.Sprintf("op_%d", i)})
	}
	got, err := l.Query(TraceQuery{})
	if err != nil || len(got) != 3 {
		t.Fatalf("retained %d, %v", len(got), err)
	}
	if got[0].Op != "op_4" || got[2].Op != "op_2" {
		t.Errorf("eviction order wrong: %+v", got)
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}
}

func TestTraceLogDisabled(t *testing.T) {
	for _, l := range []*TraceLog{nil, NewTraceLog(0), NewTraceLog(-1)} {
		l.Add(TraceEntry{Op: "x"})
		if _, err := l.Query(TraceQuery{}); !errors.Is(err, ErrDisabled) {
			t.Errorf("disabled log Query err = %v, want ErrDisabled", err)
		}
		if l.Enabled() {
			t.Error("disabled log claims enabled")
		}
		if l.Total() != 0 {
			t.Errorf("disabled log Total = %d, want 0", l.Total())
		}
	}
}

func TestSlowLog(t *testing.T) {
	l := NewTraceLog(3)
	at := time.Unix(1754649600, 0)
	l.Add(TraceEntry{Op: "fast.op", DurMS: 5, At: at, Error: "kept for its error"})
	l.Add(TraceEntry{Op: "a", DurMS: 20, At: at})
	l.Add(TraceEntry{Op: "b", DurMS: 40, At: at})
	l.Add(TraceEntry{Op: "c", DurMS: 30, At: at}) // evicts fast.op
	l.Add(TraceEntry{Op: "d", DurMS: 30, At: at}) // evicts a
	entries, err := l.Slow(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Op != "b" || entries[1].Op != "d" || entries[2].Op != "c" {
		t.Fatalf("Slow = %+v, want b,d,c: slowest first, ties newest first", entries)
	}
	if entries, _ := l.Slow(35); len(entries) != 1 || entries[0].Op != "b" {
		t.Errorf("Slow(35) = %+v, want only b", entries)
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}

	for _, off := range []*TraceLog{nil, NewTraceLog(0)} {
		off.Add(TraceEntry{Op: "x", DurMS: 1e6})
		if _, err := off.Slow(0); !errors.Is(err, ErrDisabled) {
			t.Errorf("disabled Slow err = %v, want ErrDisabled", err)
		}
	}
}
