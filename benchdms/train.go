package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
)

const (
	scanPatches = 256   // patches per scan, as the instrument delivers them
	historyLen  = 16    // scans ingested during set-up
	targetLoss  = 0.007 // validation MSE every pipeline's job trains to
	baseEpochs  = 8     // epochs of the set-up's base model
	trainSeed   = 1     // init, shuffle and holdout seed of every job
	// roundSeconds is the nominal length of one round (a warm and a cold
	// pipeline plus the scan's ingest); it sizes the round count from
	// --seconds, so every repeat runs the same rounds.
	roundSeconds = 0.7
)

// rapidTrain replays a drifting Bragg scan series through the paper's
// rapid-train action: certainty, data lookup, a BraggNN job trained to a
// target loss on the looked-up samples, and the checkpoint download, once
// with the zoo's warm start and once cold.
type rapidTrain struct {
	scans  [][]*codec.Sample
	rounds int
}

func newRapidTrain(o *options) *rapidTrain {
	rounds := max(2, int(math.Round(o.phaseSeconds()/roundSeconds)))
	// The deformation jump sits at the middle of the series, so the
	// history holds scans from both sides of it.
	drift := datagen.DefaultBraggDrift((historyLen + rounds) / 2)
	return &rapidTrain{
		scans:  drift.BraggExperiment(o.seed, historyLen+rounds, scanPatches),
		rounds: rounds,
	}
}

func (w *rapidTrain) daemonFlags(dir string, traced bool) []string {
	if traced {
		// Every train job outlasts 1ms, so each one's span tree is kept.
		return []string{"-slow-threshold", "1ms", "-slow-log", "256"}
	}
	return nil
}

func scanTag(i int) string { return fmt.Sprintf("scan-%04d", i) }

// ingestScan stores one scan as one request, so it commits as one chunk
// and the history's document IDs follow scan order.
func ingestScan(c *dmsapi.Client, w *rapidTrain, i int) error {
	resp, err := c.IngestBatch(scanTag(i), w.scans[i])
	if err != nil {
		return err
	}
	if resp.Inserted != len(w.scans[i]) || len(resp.Errors) > 0 {
		return fmt.Errorf("scan %d: %d of %d inserted", i, resp.Inserted, len(w.scans[i]))
	}
	return nil
}

// warmup does nothing: the set-up's base model job has already run the
// trainer, and an extra job would add a model that later rounds could
// start from.
func (w *rapidTrain) warmup(r *repeat) {}

func (w *rapidTrain) setup(r *repeat) error {
	for i := range historyLen {
		if err := ingestScan(r.ctl, w, i); err != nil {
			return err
		}
	}
	// The base model trains cold on the newest history scan by its tag,
	// which is the trainer's store-scan path.
	job, err := r.ctl.SubmitTrain(dmsapi.TrainRequest{
		Dataset: scanTag(historyLen - 1), Epochs: baseEpochs, MaxJSD: -1, Seed: trainSeed,
	})
	if err != nil {
		return err
	}
	if job, err = r.ctl.WaitTrain(job.ID, pollPeriod, 2*time.Minute); err != nil {
		return err
	}
	if job.State != "done" {
		return fmt.Errorf("base model job ended %s: %s", job.State, job.Error)
	}
	r.exact["base.epochs"] = strconv.Itoa(job.Epochs)
	return nil
}

// pipelineResult is what one pipeline observed besides its latency.
type pipelineResult struct {
	job        dmsapi.TrainJob
	lookupHash string
	pollGapMS  float64
}

// pipeline runs one rapid-train action on scan and checks every answer.
func (w *rapidTrain) pipeline(r *repeat, scan []*codec.Sample, maxJSD float64) (pipelineResult, error) {
	var out pipelineResult
	cert, err := r.c.Certainty(scan, 0)
	if err != nil {
		return out, fmt.Errorf("certainty: %w", err)
	}
	if !(cert >= 0 && cert <= 1) {
		r.chk.failf("certainty %v outside [0,1]", cert)
	}
	looked, err := r.c.Lookup(scan)
	if err != nil {
		return out, fmt.Errorf("lookup: %w", err)
	}
	if len(looked) < 2 {
		r.chk.failf("lookup returned %d samples", len(looked))
	}
	h := sha256.New()
	for _, s := range looked {
		if len(s.Label) != 2 {
			r.chk.failf("looked-up sample has %d label values, want 2", len(s.Label))
		}
		h.Write(s.Data)
		fmt.Fprint(h, s.Label)
	}
	out.lookupHash = hex.EncodeToString(h.Sum(nil))[:16]
	job, err := r.c.SubmitTrain(dmsapi.TrainRequest{
		Samples: dmsapi.FromCodecSlice(looked), TargetLoss: targetLoss, MaxJSD: maxJSD, Seed: trainSeed,
	})
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	if job, err = r.c.WaitTrain(job.ID, pollPeriod, 2*time.Minute); err != nil {
		return out, fmt.Errorf("wait: %w", err)
	}
	out.pollGapMS = msSince(job.FinishedAt)
	out.job = job
	if job.State != "done" {
		return out, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	warm := maxJSD >= 0
	if job.Warm != warm || (warm && job.Foundation == "") {
		r.chk.failf("job %s: warm=%v foundation=%q, want warm=%v", job.ID, job.Warm, job.Foundation, warm)
	}
	sd, err := r.c.Checkpoint(job.ModelID)
	if err != nil {
		return out, fmt.Errorf("checkpoint %s: %w", job.ModelID, err)
	}
	if sd == nil || len(sd.Values) == 0 {
		r.chk.failf("checkpoint %s is empty", job.ModelID)
	}
	return out, nil
}

func (w *rapidTrain) phase(r *repeat) {
	seenJobs := map[string]bool{}
	if r.traced {
		// The base model's tree is set-up work, not the phase's.
		w.collectJobTraces(r, seenJobs, false)
	}
	var epochs [2]int
	var pollGap, queueWait float64
	var jobs int
	for i := range w.rounds {
		scanIdx := historyLen + i
		var hashes [2]string
		for m, maxJSD := range []float64{0, -1} { // warm (default threshold), then cold
			op := [2]string{"warm", "cold"}[m]
			var res pipelineResult
			if !r.do(op, func() (err error) {
				res, err = w.pipeline(r, w.scans[scanIdx], maxJSD)
				return err
			}) {
				continue
			}
			r.ops.Add(1)
			r.embedRows.Add(3 * scanPatches) // certainty, lookup, the job's PDF
			hashes[m] = res.lookupHash
			epochs[m] += res.job.Epochs
			pollGap += res.pollGapMS
			queueWait += float64(res.job.StartedAt.Sub(res.job.SubmittedAt).Nanoseconds()) / 1e6
			jobs++
			r.exact[fmt.Sprintf("round%d.%s.epochs", i, op)] = strconv.Itoa(res.job.Epochs)
			r.exact[fmt.Sprintf("round%d.%s.foundation", i, op)] = res.job.Foundation
			if r.traced {
				w.collectJobTraces(r, seenJobs, true)
			}
		}
		if hashes[0] != hashes[1] {
			r.chk.failf("round %d: warm and cold pipelines looked up different sets (%s, %s)", i, hashes[0], hashes[1])
		}
		r.exact[fmt.Sprintf("round%d.lookup", i)] = hashes[0]
		r.do("ingest_scan", func() error { return ingestScan(r.c, w, scanIdx) })
	}
	r.layer["trainer.epochs_warm count"] = float64(epochs[0])
	r.layer["trainer.epochs_cold count"] = float64(epochs[1])
	r.layer["client.train_poll_gap_ms ms"] = ratio(pollGap, float64(jobs))
	r.layer["trainer.queue_wait_ms ms"] = ratio(queueWait, float64(jobs))
	if r.traced {
		if kept := r.book.spans("train_job"); kept != int64(jobs) {
			r.chk.failf("kept %d train job span trees for %d jobs", kept, jobs)
		}
	}
}

// collectJobTraces marks train job span trees in /debug/slowz as seen,
// and with keep also adds the ones not seen before to the repeat's span
// book.
func (w *rapidTrain) collectJobTraces(r *repeat, seen map[string]bool, keep bool) {
	var out dmsapi.SlowzResponse
	if err := r.ctl.DoJSON(context.Background(), "GET", dmsapi.PathSlow, nil, &out); err != nil {
		r.chk.failf("slowz: %v", err)
		return
	}
	for _, e := range out.Entries {
		if e.Endpoint == "train.job" && !seen[e.Trace.ID] {
			seen[e.Trace.ID] = true
			if keep {
				r.book.addJob(e.Trace)
			}
		}
	}
}

func (w *rapidTrain) after(r *repeat) {
	if r.after.Train == nil {
		r.chk.failf("dmsd reports no trainer")
		return
	}
	warm := r.after.Train.WarmStarts - r.before.Train.WarmStarts
	cold := r.after.Train.ColdStarts - r.before.Train.ColdStarts
	r.exact["trainer.warm_starts"] = strconv.FormatInt(warm, 10)
	r.exact["trainer.cold_starts"] = strconv.FormatInt(cold, 10)
	r.layer["trainer.warm_starts count"] = float64(warm)
	r.layer["trainer.cold_starts count"] = float64(cold)
	h, err := r.ctl.Health()
	if err != nil {
		r.chk.failf("healthz: %v", err)
		return
	}
	r.layer["fairms.zoo_size count"] = float64(h.Models)
	if r.book != nil {
		var epochs float64
		for _, k := range []string{"trainer.epochs_warm count", "trainer.epochs_cold count"} {
			epochs += r.layer[k]
		}
		r.layer["trainer.epoch_ms ms"] = ratio(r.book.selfMS("fit"), epochs)
	}
}

func (w *rapidTrain) summarize(s *summary, untraced, traced []*repeat) {
	warm, cold := pooled(untraced, "warm"), pooled(untraced, "cold")
	s.add(&s.e2e, "ops_per_s", best(rates(untraced), false), "1/s", len(warm)+len(cold))
	// How many epochs a warm job needs depends on the scan series the seed
	// draws: summed over a run's rounds they ranged from 11 to 31 across
	// seeds in sizing runs, and the median round sits on the border
	// between one and two epochs. The gated warm figure is therefore the
	// lower quartile over rounds, the rounds whose foundation was close
	// enough for about one epoch: the pipeline's own cost. The epochs
	// themselves are exact per-layer counts. Cold jobs need 6 to 10 epochs
	// on every seed, so their mean over rounds is steady.
	fastWarm, nWarm := percentile(bestRounds(untraced, "warm"), 0.25)
	s.add(&s.e2e, "latency_ms", fastWarm, "ms", nWarm)
	s.add(&s.e2e, "slow_path_ms", mean(bestRounds(untraced, "cold")), "ms", len(cold))
	s.add(&s.report, "time_to_model_s", median(warm)/1e3, "s", len(warm))
	s.add(&s.report, "time_to_model_cold_s", median(cold)/1e3, "s", len(cold))
	s.add(&s.report, "warm_speedup", ratio(median(cold), median(warm)), "x", len(warm))
	s.env["rapid_train_rounds_per_repeat"] = w.rounds
	s.env["rapid_train_target_loss"] = targetLoss
	s.env["rapid_train_history_scans"] = historyLen
}

// bestRounds returns, per round, the fastest op pipeline across reps.
// Every repeat replays the same rounds, so that is the round's time on
// the calmest repeat.
func bestRounds(reps []*repeat, op string) []float64 {
	var rounds [][]float64
	for _, r := range reps {
		for i, ms := range r.lat.get(op) {
			if i == len(rounds) {
				rounds = append(rounds, nil)
			}
			rounds[i] = append(rounds[i], ms)
		}
	}
	bests := make([]float64, len(rounds))
	for i, v := range rounds {
		bests[i] = best(v, true)
	}
	return bests
}
