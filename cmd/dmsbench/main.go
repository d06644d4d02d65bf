// Command dmsbench load-tests a live dmsd daemon or dmsrouter (both
// serve the same /v1 surface and /statsz): a closed-loop worker pool
// drives a weighted mix of the serving-path operations (batch ingest,
// certainty, nearest-label, recommend, and end-to-end server-side train
// jobs), measures client-side latency histograms plus the server's /statsz
// delta, prints a human summary, and writes the machine-readable
// BENCH_dmsapi.json that records the serving tier's performance trajectory
// across PRs (see docs/BENCHMARKS.md).
//
// Usage:
//
//	dmsd -addr 127.0.0.1:7718 &
//	dmsbench -addr 127.0.0.1:7718 -workers 4 -duration 5s \
//	         -mix ingest_batch:1,certainty:2,nearest:4,recommend:4,train:1 \
//	         -out BENCH_dmsapi.json
//
// With -fail-on-errors the exit status is non-zero if any request failed —
// the contract the CI bench-smoke gate relies on. -slo-check evaluates
// the run against router-style objectives ("nearest:p99<50ms,err<1%")
// and fails the same way when one is breached.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"fairdms/internal/loadgen"
	"fairdms/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7718", "dmsd or dmsrouter address to drive")
	workers := flag.Int("workers", 4, "closed-loop worker count")
	duration := flag.Duration("duration", 5*time.Second, "measured phase length")
	mixFlag := flag.String("mix", "ingest_batch:1,certainty:2,nearest:4,recommend:4",
		"operation mix as op:weight,... (ops: ingest_batch, certainty, nearest, recommend, train)")
	trainEpochs := flag.Int("train-epochs", 3, "epochs per train-op job")
	batch := flag.Int("batch", 64, "documents per ingest_batch request")
	query := flag.Int("query", 8, "samples per certainty/nearest request")
	patch := flag.Int("patch", 11, "square Bragg patch edge for generated samples")
	setupDocs := flag.Int("setup-docs", 256, "corpus documents seeded before measuring")
	seed := flag.Int64("seed", 1, "determinism seed for samples and scheduling")
	traceSample := flag.Int("trace-sample", 16, "trace every Nth request end to end, keeping the slowest span trees in the report (0 disables)")
	out := flag.String("out", "BENCH_dmsapi.json", "report path (empty = don't write)")
	failOnErrors := flag.Bool("fail-on-errors", false, "exit non-zero if any request failed")
	sloCheck := flag.String("slo-check", "", "objectives to assert against the run, router -slo grammar (e.g. 'nearest:p99<50ms,err<1%'); breaches exit non-zero")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		log.Fatalf("dmsbench: %v", err)
	}
	slos, err := obs.ParseSLOs(*sloCheck)
	if err != nil {
		log.Fatalf("dmsbench: -slo-check: %v", err)
	}
	cfg := loadgen.Config{
		Addr:        *addr,
		Workers:     *workers,
		Duration:    *duration,
		Mix:         mix,
		BatchSize:   *batch,
		QuerySize:   *query,
		Patch:       *patch,
		SetupDocs:   *setupDocs,
		TrainEpochs: *trainEpochs,
		Seed:        *seed,
		TraceSample: *traceSample,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatalf("dmsbench: %v", err)
	}
	fmt.Print(rep.Summary())
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			log.Fatalf("dmsbench: writing %s: %v", *out, err)
		}
		if !*quiet {
			log.Printf("dmsbench: report written to %s", *out)
		}
	}
	if *failOnErrors && (rep.TotalErrors > 0 || rep.Server.Errors > 0) {
		log.Printf("dmsbench: FAIL — %d client errors, %d server endpoint errors",
			rep.TotalErrors, rep.Server.Errors)
		os.Exit(1)
	}
	if violations := loadgen.CheckSLOs(rep, slos); len(violations) > 0 {
		for _, v := range violations {
			log.Printf("dmsbench: SLO breach — %s", v)
		}
		os.Exit(1)
	} else if len(slos) > 0 && !*quiet {
		log.Printf("dmsbench: all %d SLO objectives held", len(slos))
	}
}
