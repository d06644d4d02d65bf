package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
)

const (
	corpusDocs  = 65536 // documents seeded before serve_read and ingest_wal
	seedBatch   = 4096  // documents per set-up ingest request
	patch       = 11    // edge of the serving workloads' Bragg patches
	querySize   = 8     // samples per certainty or nearest query
	zooModels   = 64    // models primed into the zoo for serve_read
	probeRounds = 32    // fixed nearest queries that measure probe work
	// serveWarmup is the untimed load each serve_read repeat runs before
	// its phase.
	serveWarmup = 500 * time.Millisecond
)

// braggPatches draws n labeled 11×11 Bragg patches.
func braggPatches(rng *rand.Rand, n int) []*codec.Sample {
	reg := datagen.DefaultBraggRegime()
	reg.Patch = patch
	return reg.Generate(rng, n)
}

// seedCorpus ingests docs under the "corpus" tag. The first batch goes
// alone, because dmsd fits its clusters on the first batch it sees; the
// rest go through the set-up clients in parallel.
func seedCorpus(c *dmsapi.Client, docs []*codec.Sample) error {
	ingest := func(lo int) error {
		hi := min(lo+seedBatch, len(docs))
		resp, err := c.IngestBatch("corpus", docs[lo:hi])
		if err != nil {
			return err
		}
		if resp.Inserted != hi-lo || len(resp.Errors) > 0 {
			return fmt.Errorf("seeding: %d of %d documents inserted, %d rejected", resp.Inserted, hi-lo, len(resp.Errors))
		}
		return nil
	}
	if err := ingest(0); err != nil {
		return err
	}
	var next atomic.Int64
	next.Store(seedBatch)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := int(next.Add(seedBatch) - seedBatch); lo < len(docs) && errs[w] == nil; lo = int(next.Add(seedBatch) - seedBatch) {
				errs[w] = ingest(lo)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveRead is the paper's serving phase on a stationary corpus:
// certainty, nearest and recommend in the 2:4:4 mix of the committed
// reference, with no ingest.
type serveRead struct {
	corpus  []*codec.Sample
	queries []*codec.Sample
}

func newServeRead(o *options) *serveRead {
	rng := rand.New(rand.NewSource(o.seed))
	return &serveRead{corpus: braggPatches(rng, corpusDocs), queries: braggPatches(rng, 4096)}
}

func (w *serveRead) daemonFlags(dir string, traced bool) []string { return nil }

func (w *serveRead) setup(r *repeat) error {
	if err := seedCorpus(r.ctl, w.corpus); err != nil {
		return err
	}
	h, err := r.ctl.Health()
	if err != nil {
		return err
	}
	if h.Samples != corpusDocs || h.K <= 0 {
		return fmt.Errorf("after seeding: %d samples, k=%d", h.Samples, h.K)
	}
	return primeZoo(r, h.K)
}

// primeZoo registers zooModels small checkpoints whose training PDFs are
// distinct draws over k clusters.
func primeZoo(r *repeat, k int) error {
	rng := rand.New(rand.NewSource(r.o.seed + 1))
	for i := range zooModels {
		pdf := make(stats.PDF, k)
		var total float64
		for j := range pdf {
			pdf[j] = math.Exp(1.5 * rng.NormFloat64())
			total += pdf[j]
		}
		for j := range pdf {
			pdf[j] /= total
		}
		state := nn.Sequential(nn.NewLinear(rng, 4, 2)).State()
		if err := r.ctl.AddModel(modelID(i), state, pdf, map[string]string{"origin": "benchdms"}); err != nil {
			return err
		}
	}
	return nil
}

func modelID(i int) string { return "zoo-" + strconv.Itoa(i) }

// perturb jitters a PDF and renormalizes it, so no two recommend bodies
// repeat and the server's response cache is not what gets measured.
func perturb(rng *rand.Rand, pdf stats.PDF) stats.PDF {
	out := make(stats.PDF, len(pdf))
	var total float64
	for i, p := range pdf {
		out[i] = max(p*(1+0.3*rng.Float64()), 1e-9)
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// The warm-up draws its queries and PDFs from another stream than the
// phase, so the phase's recommend bodies are not already in the response
// cache.
func (w *serveRead) warmup(r *repeat) { w.drive(r, time.Now().Add(serveWarmup), 1) }

func (w *serveRead) phase(r *repeat) {
	w.drive(r, r.phaseStart.Add(time.Duration(r.o.phaseSeconds()*float64(time.Second))), 0)
}

// drive runs the closed-loop read mix until deadline, drawing from the
// request stream numbered stream.
func (w *serveRead) drive(r *repeat, deadline time.Time, stream int64) {
	basePDF, err := r.ctl.PDF(w.queries[:256])
	if err != nil {
		r.chk.failf("pdf: %v", err)
		return
	}
	known := make(map[string]bool, zooModels)
	for i := range zooModels {
		known[modelID(i)] = true
	}
	schedule := []string{"certainty", "certainty", "nearest", "nearest", "nearest", "nearest",
		"recommend", "recommend", "recommend", "recommend"}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.o.seed*7919 + int64(r.idx)*31 + int64(c) + stream*104729))
			for time.Now().Before(deadline) {
				op := schedule[rng.Intn(len(schedule))]
				lo := rng.Intn(len(w.queries) - querySize)
				q := w.queries[lo : lo+querySize]
				ok := false
				switch op {
				case "certainty":
					var v float64
					if ok = r.do(op, func() (err error) { v, err = r.c.Certainty(q, 0.5); return }); ok {
						if !(v >= 0 && v <= 1) {
							r.chk.failf("certainty %v outside [0,1]", v)
						}
						r.embedRows.Add(querySize)
					}
				case "nearest":
					var ms []dmsapi.Match
					if ok = r.do(op, func() (err error) { ms, err = r.c.Nearest(q, false); return }); ok {
						checkMatches(r, ms)
						r.embedRows.Add(querySize)
					}
				case "recommend":
					var rec dmsapi.RecommendResponse
					pdf := perturb(rng, basePDF)
					if ok = r.do(op, func() (err error) { rec, err = r.c.Recommend(pdf, 0); return }); ok {
						if !rec.OK || !known[rec.ID] || math.IsNaN(rec.JSD) {
							r.chk.failf("recommend named %q (ok=%v, jsd=%v), not a registered model", rec.ID, rec.OK, rec.JSD)
						}
					}
				}
				if ok {
					r.ops.Add(1)
				}
			}
		}()
	}
	wg.Wait()
}

// checkMatches verifies that every nearest match was found at a finite
// distance.
func checkMatches(r *repeat, ms []dmsapi.Match) {
	if len(ms) != querySize {
		r.chk.failf("nearest returned %d matches for %d samples", len(ms), querySize)
	}
	for _, m := range ms {
		if !m.Found || m.DocID == "" || math.IsNaN(m.Dist) || math.IsInf(m.Dist, 0) || m.Dist < 0 {
			r.chk.failf("nearest match %+v not found at a finite distance", m)
		}
	}
}

func (w *serveRead) after(r *repeat) {
	if b, a := r.before.Index.Size, r.after.Index.Size; b != corpusDocs || a != corpusDocs {
		r.chk.failf("index size moved during the phase: %d before, %d after, want %d", b, a, corpusDocs)
	}
	// A fixed query set, sent one at a time, measures how many vectors a
	// query probes; unlike the phase's own count it does not depend on
	// how many queries the phase managed.
	before, err := r.ctl.ServerStats()
	if err != nil {
		r.chk.failf("statsz: %v", err)
		return
	}
	for i := range probeRounds {
		ms, err := r.ctl.Nearest(w.queries[i*querySize:(i+1)*querySize], false)
		if err != nil {
			r.chk.failf("probe nearest: %v", err)
			return
		}
		checkMatches(r, ms)
	}
	after, err := r.ctl.ServerStats()
	if err != nil {
		r.chk.failf("statsz: %v", err)
		return
	}
	perQuery := ratio(float64(after.Index.Probed-before.Index.Probed), float64(after.Index.Hits-before.Index.Hits))
	r.exact["vecindex.probed_per_query"] = strconv.FormatFloat(perQuery, 'f', -1, 64)
	r.exact["index.size"] = strconv.Itoa(r.after.Index.Size)
	r.layer["vecindex.probed_per_query count"] = perQuery
	r.layer["fairms.zoo_size count"] = float64(zooModels)
}

func (w *serveRead) summarize(s *summary, untraced, traced []*repeat) {
	reads := []string{"certainty", "nearest", "recommend"}
	secs := phaseSecs(untraced)
	p99, n := percentile(pooled(untraced, reads...), 0.99)
	nearestP50s, nn := perRepeat(untraced, p(0.50), "nearest")
	readP99s, _ := perRepeat(untraced, p(0.99), reads...)
	s.add(&s.e2e, "ops_per_s", best(rates(untraced), false), "1/s", n)
	s.add(&s.e2e, "latency_ms", best(nearestP50s, true), "ms", nn)
	s.add(&s.e2e, "slow_path_ms", best(readP99s, true), "ms", n)

	s.add(&s.report, "throughput_rps", median(rates(untraced)), "req/s", n)
	for _, q := range []struct {
		name, op string
		p        float64
	}{
		{"nearest_p50_ms", "nearest", 0.50}, {"nearest_p99_ms", "nearest", 0.99},
		{"certainty_p50_ms", "certainty", 0.50}, {"recommend_p50_ms", "recommend", 0.50},
	} {
		v, n := percentile(pooled(untraced, q.op), q.p)
		s.add(&s.report, q.name, v, "ms", n)
	}
	s.add(&s.report, "read_p99_ms", p99, "ms", n)
	var first, second float64
	for _, r := range untraced {
		first += float64(r.halves[0].Load())
		second += float64(r.halves[1].Load())
	}
	s.add(&s.report, "throughput_first_half_rps", ratio(first, secs/2), "req/s", int(first))
	s.add(&s.report, "throughput_second_half_rps", ratio(second, secs/2), "req/s", int(second))
	s.add(&s.report, "index_size", float64(untraced[0].after.Index.Size), "docs", 0)
}
