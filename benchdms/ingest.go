package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"

	"fairdms/internal/codec"
	"fairdms/internal/dmsapi"
)

const (
	ingestBatch = 64 // documents per ingest_wal request
	// ingestRate is the nominal documents per second that sizes the
	// ingest_wal phase: each repeat ingests phaseSeconds × ingestRate
	// documents, however long that takes, so the final corpus and heap do
	// not depend on the speed being measured.
	ingestRate = 20000
	ingestPool = 8192 // distinct documents cycled through by the phase
	// warmupBatches are ingested untimed, under their own tag, before
	// each repeat's phase.
	warmupBatches = 16
	// walBytesTolerance is how far apart, in bytes per document, the
	// repeats' WAL volume may lie (see ingestWAL.summarize).
	walBytesTolerance = 0.05
)

// ingestWAL is the durable write path: 64-document batches into a dmsd
// with a write-ahead log, on top of the same seed corpus as serve_read.
type ingestWAL struct {
	corpus, pool []*codec.Sample
	docs         int // documents per repeat
}

func newIngestWAL(o *options) *ingestWAL {
	rng := rand.New(rand.NewSource(o.seed))
	w := &ingestWAL{corpus: braggPatches(rng, corpusDocs), pool: braggPatches(rng, ingestPool)}
	unit := clients * ingestBatch
	w.docs = max(unit, int(o.phaseSeconds()*ingestRate)/unit*unit)
	return w
}

func (w *ingestWAL) daemonFlags(dir string, traced bool) []string {
	// No periodic compaction: one compaction of this store takes seconds,
	// so a phase would hold a random fraction of one (see README.md).
	return []string{"-wal-dir", dir + "/wal", "-compact-interval", "0"}
}

func (w *ingestWAL) setup(r *repeat) error { return seedCorpus(r.ctl, w.corpus) }

func (w *ingestWAL) warmup(r *repeat) { w.drive(r, "warmup", warmupBatches) }

func (w *ingestWAL) phase(r *repeat) { w.drive(r, "ingest", int64(w.docs/ingestBatch)) }

// drive sends batches 64-document batches under dataset tag from the
// closed-loop clients.
func (w *ingestWAL) drive(r *repeat, tag string, batches int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := next.Add(1) - 1; b < batches; b = next.Add(1) - 1 {
				lo := int(b*ingestBatch) % len(w.pool)
				var resp dmsapi.IngestBatchResponse
				if !r.do("ingest", func() (err error) { resp, err = r.c.IngestBatch(tag, w.pool[lo:lo+ingestBatch]); return }) {
					continue
				}
				if resp.Inserted != ingestBatch || len(resp.Errors) > 0 || len(resp.IDs) != ingestBatch {
					r.chk.failf("batch %d: %d of %d inserted, %d rejected", b, resp.Inserted, ingestBatch, len(resp.Errors))
				}
				for _, id := range resp.IDs {
					if id == "" {
						r.chk.failf("batch %d: empty document ID", b)
					}
				}
				r.ops.Add(int64(resp.Inserted))
				r.embedRows.Add(ingestBatch)
			}
		}()
	}
	wg.Wait()
}

func (w *ingestWAL) after(r *repeat) {
	b, a := r.before.Wal, r.after.Wal
	if a == nil || b == nil || !a.Enabled {
		r.chk.failf("dmsd reports no WAL")
		return
	}
	if got := r.ops.Load(); got != int64(w.docs) {
		r.chk.failf("%d documents acknowledged, %d sent", got, w.docs)
	}
	if a.TornTruncations != 0 || a.CorruptRecords != 0 {
		r.chk.failf("WAL reports %d torn and %d corrupt records", a.TornTruncations, a.CorruptRecords)
	}
	if want := corpusDocs + warmupBatches*ingestBatch + w.docs; r.after.Index.Size != want {
		r.chk.failf("index holds %d documents, want %d", r.after.Index.Size, want)
	}
	bytesPerDoc := float64(a.AppendedBytes-b.AppendedBytes) / float64(w.docs)
	r.exact["wal.appends"] = strconv.FormatInt(a.Appends-b.Appends, 10)
	r.exact["docs"] = strconv.Itoa(r.after.Index.Size)
	r.layer["wal.appends count"] = float64(a.Appends - b.Appends)
	r.layer["wal.bytes_per_doc B"] = bytesPerDoc
	r.layer["wal.syncs count"] = float64(a.Syncs - b.Syncs)
	r.layer["wal.compactions count"] = float64(a.Compactions - b.Compactions)
}

func (w *ingestWAL) summarize(s *summary, untraced, traced []*repeat) {
	lat := pooled(untraced, "ingest")
	docs := opsOf(untraced)
	p50, n := percentile(lat, 0.50)
	p99, _ := percentile(lat, 0.99)
	p50s, _ := perRepeat(untraced, p(0.50), "ingest")
	p99s, _ := perRepeat(untraced, p(0.99), "ingest")
	s.add(&s.e2e, "ops_per_s", best(rates(untraced), false), "1/s", n)
	s.add(&s.e2e, "latency_ms", best(p50s, true), "ms", n)
	s.add(&s.e2e, "slow_path_ms", best(p99s, true), "ms", n)
	s.add(&s.report, "ingest_docs_per_s", median(rates(untraced)), "docs/s", int(docs))
	s.add(&s.report, "ingest_p50_ms", p50, "ms", n)
	s.add(&s.report, "ingest_p99_ms", p99, "ms", n)
	s.env["ingest_docs_per_repeat"] = w.docs

	// The WAL's bytes per document are not byte-stable across processes:
	// gob-encoding the same map-valued documents yields lengths a few
	// bytes apart from one dmsd to the next. They must still agree to
	// within walBytesTolerance.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range append(untraced, traced...) {
		v := r.layer["wal.bytes_per_doc B"]
		lo, hi = min(lo, v), max(hi, v)
	}
	if hi-lo > walBytesTolerance {
		s.correct = false
		s.problems = append(s.problems, fmt.Sprintf("not repeatable: wal.bytes_per_doc spans %.4f to %.4f B", lo, hi))
	}
	s.add(&s.report, "wal_bytes_per_doc_spread", hi-lo, "B", len(untraced)+len(traced))
}
