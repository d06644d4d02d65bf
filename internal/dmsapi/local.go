package dmsapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/nn"
	"fairdms/internal/obs"
	"fairdms/internal/trainer"
)

// local is the in-process Backend (dmsd): it answers the /v1 surface from
// this process's fairds.Service and fairms.Zoo. It owns everything the
// HTTP frontend does not — the bootstrap fit, the coalescing
// recommend/PDF cache, and the embedded trainer — plus the shard-internal
// fit/samples/ids calls the cluster router's merges are built on.
type local struct {
	ds         *fairds.Service
	zoo        *fairms.Zoo
	bootstrapK int
	walStats   func() WalStats
	logger     *obs.Logger

	// dsMu guards the fairds.Service: the bootstrap fit mutates its
	// clustering model, everything else only reads it. fairms.Zoo locks
	// internally and needs no guarding here.
	dsMu sync.RWMutex
	// clusterK mirrors ds.K() so /healthz never waits on dsMu — the
	// bootstrap fit holds it exclusively for a full k-means run, and a
	// liveness probe stalling exactly then would get the daemon killed
	// mid-bootstrap.
	clusterK atomic.Int64

	cache *cache
	// zooGen/clusterGen version the cache keyspace: adding a model
	// invalidates recommend results, refitting clusters invalidates PDF
	// results. Bumping the generation orphans stale entries, which age out
	// of the LRU.
	zooGen     atomic.Uint64
	clusterGen atomic.Uint64

	// trainer is the embedded training-job subsystem (nil when
	// TrainWorkers == 0). Its jobs read the data service under dsMu's
	// read side and bump zooGen when a checkpoint lands in the zoo.
	trainer *trainer.Manager
}

// errTrainingDisabled answers every /v1/train call on a server started
// without training workers.
var errTrainingDisabled = errf(http.StatusNotFound, "train: training is disabled on this server")

// newLocal builds the in-process backend, registers its metric families on
// reg, and starts the trainer; retain receives finished train jobs.
func newLocal(cfg ServerConfig, reg *obs.Registry,
	retain func(name string, d time.Duration, err error, degraded bool, tr *obs.Trace)) (*local, error) {
	if cfg.DS == nil || cfg.Zoo == nil {
		return nil, errors.New("dmsapi: server needs both a data service and a model zoo")
	}
	l := &local{
		ds:         cfg.DS,
		zoo:        cfg.Zoo,
		bootstrapK: cfg.BootstrapK,
		walStats:   cfg.WalStats,
		logger:     cfg.Logger,
		cache:      newCache(max(cfg.CacheSize, 0)),
	}
	l.clusterK.Store(int64(cfg.DS.K()))
	if cfg.TrainWorkers > 0 {
		mgr, err := trainer.New(trainer.Config{
			DS:      cfg.DS,
			Zoo:     cfg.Zoo,
			Workers: cfg.TrainWorkers,
			Queue:   cfg.TrainQueue,
			// Jobs read the data service under the same lock the bootstrap
			// fit takes exclusively, so a fit never races a running job.
			Guard: &l.dsMu,
			// A checkpoint landing in the zoo invalidates memoized
			// recommend results exactly like a client-side model add.
			OnRegister: func(string) { l.zooGen.Add(1) },
			// Job stage timings land in the same registry and trace ring
			// as serving traffic: epoch durations under
			// dms_train_epoch_seconds, and a failed job or one slower than
			// the request threshold keeps its span tree under train.job.
			Obs: reg,
			OnTrace: func(d time.Duration, tr *obs.Trace, err error) {
				retain("train.job", d, err, false, tr)
			},
			Logger: cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		l.trainer = mgr
	}
	l.registerMetrics(reg)
	if l.trainer != nil {
		l.trainer.Start()
	}
	return l, nil
}

// registerMetrics mirrors the backend's /statsz counters into the
// registry: cache, index, trainer and WAL counters stay owned by their
// existing atomics and are read through closures — one source of truth,
// two exposition formats.
func (l *local) registerMetrics(r *obs.Registry) {
	r.GaugeFunc("dms_cluster_k", "fitted cluster count (0 = awaiting bootstrap)",
		func() float64 { return float64(l.clusterK.Load()) })

	r.CounterFunc("dms_cache_hits_total", "coalescing-cache hits", l.cache.hits.Load)
	r.CounterFunc("dms_cache_misses_total", "coalescing-cache misses", l.cache.misses.Load)
	r.CounterFunc("dms_cache_coalesced_total", "callers that piggybacked on an in-flight compute", l.cache.coalesced.Load)
	r.CounterFunc("dms_cache_evictions_total", "LRU evictions", l.cache.evictions.Load)
	r.GaugeFunc("dms_cache_size", "retained cache entries",
		func() float64 { return float64(l.cache.len()) })

	// IndexStats reads only atomics inside the data service, so scrapes
	// never contend with queries or the bootstrap fit.
	r.GaugeFunc("dms_index_ready", "1 when the vector index covers the store",
		func() float64 {
			if l.ds.IndexStats().Ready {
				return 1
			}
			return 0
		})
	r.GaugeFunc("dms_index_size", "indexed vectors",
		func() float64 { return float64(l.ds.IndexStats().Size) })
	r.CounterFunc("dms_index_hits_total", "nearest-label queries answered by the index",
		func() int64 { return l.ds.IndexStats().Hits })
	r.CounterFunc("dms_index_misses_total", "nearest-label queries that fell back to a store scan",
		func() int64 { return l.ds.IndexStats().Misses })
	r.CounterFunc("dms_index_probed_total", "vectors distance-compared by the index",
		func() int64 { return l.ds.IndexStats().Probed })
	r.CounterFunc("dms_index_lists_probed_total", "index partitions visited",
		func() int64 { return l.ds.IndexStats().ListsProbed })
	r.CounterFunc("dms_index_corrupt_total", "corrupt stored-document observations",
		func() int64 { return l.ds.IndexStats().Corrupt })

	if l.trainer != nil {
		trainStats := func(pick func(trainer.Stats) int64) func() int64 {
			return func() int64 { return pick(l.trainer.Stats()) }
		}
		r.CounterFunc("dms_train_submitted_total", "training jobs submitted",
			trainStats(func(t trainer.Stats) int64 { return t.Submitted }))
		r.CounterFunc("dms_train_completed_total", "training jobs completed",
			trainStats(func(t trainer.Stats) int64 { return t.Completed }))
		r.CounterFunc("dms_train_failed_total", "training jobs failed",
			trainStats(func(t trainer.Stats) int64 { return t.Failed }))
		r.CounterFunc("dms_train_canceled_total", "training jobs canceled",
			trainStats(func(t trainer.Stats) int64 { return t.Canceled }))
		r.CounterFunc("dms_train_warm_starts_total", "jobs warm-started from a zoo checkpoint",
			trainStats(func(t trainer.Stats) int64 { return t.WarmStarts }))
		r.CounterFunc("dms_train_cold_starts_total", "jobs trained from scratch",
			trainStats(func(t trainer.Stats) int64 { return t.ColdStarts }))
		r.GaugeFunc("dms_train_queue_depth", "jobs waiting for a training worker",
			func() float64 { return float64(l.trainer.Stats().QueueDepth) })
		r.GaugeFunc("dms_train_active", "jobs currently training",
			func() float64 { return float64(l.trainer.Stats().Active) })
	}

	if l.walStats != nil {
		walStat := func(pick func(WalStats) int64) func() int64 {
			return func() int64 { return pick(l.walStats()) }
		}
		r.CounterFunc("dms_wal_appends_total", "WAL records appended",
			walStat(func(w WalStats) int64 { return w.Appends }))
		r.CounterFunc("dms_wal_bytes_total", "WAL bytes appended",
			walStat(func(w WalStats) int64 { return w.AppendedBytes }))
		r.CounterFunc("dms_wal_syncs_total", "WAL fsync calls",
			walStat(func(w WalStats) int64 { return w.Syncs }))
		r.CounterFunc("dms_wal_replays_total", "WAL segment replays at startup",
			walStat(func(w WalStats) int64 { return w.Replays }))
		r.CounterFunc("dms_wal_replayed_records_total", "WAL records replayed at startup",
			walStat(func(w WalStats) int64 { return w.ReplayedRecords }))
		r.CounterFunc("dms_wal_torn_truncations_total", "torn WAL tails truncated during replay",
			walStat(func(w WalStats) int64 { return w.TornTruncations }))
		r.CounterFunc("dms_wal_corrupt_records_total", "corrupt WAL records truncated during replay",
			walStat(func(w WalStats) int64 { return w.CorruptRecords }))
		r.CounterFunc("dms_wal_compactions_total", "WAL compactions folded into the snapshot",
			walStat(func(w WalStats) int64 { return w.Compactions }))
	}
}

// fillStats adds the backend's blocks to a /statsz snapshot.
func (l *local) fillStats(st *Stats) {
	st.Cache = l.cache.stats()
	// IndexStats is atomically counted inside the data service, so no dsMu
	// here — /statsz answers even during a bootstrap fit.
	is := l.ds.IndexStats()
	st.Index = IndexStats{
		Enabled:     is.Enabled,
		Ready:       is.Ready,
		Size:        is.Size,
		Hits:        is.Hits,
		Misses:      is.Misses,
		Probed:      is.Probed,
		ListsProbed: is.ListsProbed,
		Corrupt:     is.Corrupt,
	}
	if l.trainer != nil {
		ts := l.trainer.Stats()
		st.Train = &ts
	}
	if l.walStats != nil {
		ws := l.walStats()
		st.Wal = &ws
	}
}

// shutdown stops the trainer: no new jobs, running ones canceled, workers
// drained until ctx expires.
func (l *local) shutdown(ctx context.Context) error {
	if l.trainer == nil {
		return nil
	}
	return l.trainer.Shutdown(ctx)
}

// ---------------------------------------------------------------------------
// Data plane

// Ingest is the pipelined embed→index→store batch path
// (fairds.IngestLabeledBatch) with per-document failure reporting: a
// malformed wire sample becomes a DocError, and the survivors bootstrap
// the clustering model if needed and commit.
func (l *local) Ingest(ctx context.Context, req IngestBatchRequest) (IngestBatchResponse, error) {
	resp := IngestBatchResponse{IDs: make([]string, len(req.Samples))}
	valid := make([]*codec.Sample, 0, len(req.Samples))
	validIdx := make([]int, 0, len(req.Samples))
	for i := range req.Samples {
		smp, err := decodeSample(req.Samples[i])
		if err != nil {
			resp.Errors = append(resp.Errors, DocError{Index: i, Error: err.Error()})
			continue
		}
		valid = append(valid, smp)
		validIdx = append(validIdx, i)
	}

	if len(valid) > 0 {
		// The bootstrap fit collates its input, which would fail the whole
		// request on a mixed-width batch — but per-document failure is this
		// call's contract, so only documents matching the batch's reference
		// width (the first valid sample, same rule as IngestLabeledBatch)
		// feed the fit; the off-width rest still get their individual
		// errors from the service below.
		fitSet := valid
		refWidth := valid[0].Elems()
		for _, smp := range valid[1:] {
			if smp.Elems() != refWidth {
				fitSet = make([]*codec.Sample, 0, len(valid))
				for _, s := range valid {
					if s.Elems() == refWidth {
						fitSet = append(fitSet, s)
					}
				}
				break
			}
		}
		if err := l.ensureClusters(fitSet); err != nil {
			return IngestBatchResponse{}, err
		}
		l.dsMu.RLock()
		res, err := l.ds.IngestLabeledBatchContext(ctx, valid, req.Dataset, fairds.BatchOptions{})
		l.dsMu.RUnlock()
		if err != nil {
			return IngestBatchResponse{}, serviceError(err)
		}
		for j, id := range res.IDs {
			resp.IDs[validIdx[j]] = id
		}
		for _, de := range res.Errors {
			resp.Errors = append(resp.Errors, DocError{Index: validIdx[de.Index], Error: de.Err.Error()})
		}
	}
	sort.Slice(resp.Errors, func(i, j int) bool { return resp.Errors[i].Index < resp.Errors[j].Index })
	for _, id := range resp.IDs {
		if id != "" {
			resp.Inserted++
		}
	}
	return resp, nil
}

// ingestAll is dmsd's all-or-nothing single-request ingest: the validated
// samples bootstrap the clustering model if needed and commit as one store
// write with IDs in input order, so a failed write commits nothing.
func (l *local) ingestAll(ctx context.Context, samples []*codec.Sample, dataset string) ([]string, error) {
	if err := l.ensureClusters(samples); err != nil {
		return nil, err
	}
	l.dsMu.RLock()
	ids, err := l.ds.IngestLabeledContext(ctx, samples, dataset)
	l.dsMu.RUnlock()
	if err != nil {
		return nil, serviceError(err)
	}
	return ids, nil
}

// ensureClusters performs the bootstrap fit: a daemon that started with an
// empty store fits its clustering module on the first ingested batch.
func (l *local) ensureClusters(samples []*codec.Sample) error {
	l.dsMu.RLock()
	fitted := l.ds.K() > 0
	l.dsMu.RUnlock()
	if fitted || l.bootstrapK <= 0 {
		return nil
	}
	l.dsMu.Lock()
	defer l.dsMu.Unlock()
	if l.ds.K() > 0 { // raced with another bootstrapper
		return nil
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return errf(http.StatusBadRequest, "ingest: %v", err)
	}
	if err := l.ds.FitClustersK(x, l.bootstrapK); err != nil {
		return serviceError(err)
	}
	l.clusterK.Store(int64(l.ds.K()))
	l.clusterGen.Add(1)
	l.logger.Info("bootstrap-fitted clusters", "k", l.bootstrapK, "samples", len(samples))
	return nil
}

func (l *local) Certainty(ctx context.Context, req CertaintyRequest) (CertaintyResponse, error) {
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return CertaintyResponse{}, err
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return CertaintyResponse{}, errf(http.StatusBadRequest, "certainty: %v", err)
	}
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	l.dsMu.RLock()
	cert, err := l.ds.CertaintyContext(ctx, x, threshold)
	l.dsMu.RUnlock()
	if err != nil {
		return CertaintyResponse{}, serviceError(err)
	}
	return CertaintyResponse{Certainty: cert}, nil
}

func (l *local) Lookup(ctx context.Context, req LookupRequest) (LookupResponse, error) {
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return LookupResponse{}, err
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return LookupResponse{}, errf(http.StatusBadRequest, "lookup: %v", err)
	}
	l.dsMu.RLock()
	labeled, err := l.ds.LookupLabeledContext(ctx, x)
	l.dsMu.RUnlock()
	if err != nil {
		return LookupResponse{}, serviceError(err)
	}
	return LookupResponse{Samples: FromCodecSlice(labeled)}, nil
}

func (l *local) Nearest(ctx context.Context, req NearestRequest) (NearestResponse, error) {
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return NearestResponse{}, err
	}
	var exclude map[string]bool
	if len(req.Exclude) > 0 {
		exclude = make(map[string]bool, len(req.Exclude))
		for _, id := range req.Exclude {
			exclude[id] = true
		}
	}
	l.dsMu.RLock()
	matches, err := l.ds.NearestMatchesExcluding(ctx, samples, req.Distinct, exclude)
	l.dsMu.RUnlock()
	if err != nil {
		return NearestResponse{}, serviceError(err)
	}
	out := make([]Match, len(matches))
	for i, m := range matches {
		if m.DocID != "" {
			out[i] = Match{DocID: m.DocID, Dist: m.Dist, Found: true}
		}
	}
	return NearestResponse{Matches: out}, nil
}

// PDF is memoized by the server (see memoized): a cluster refit bumps
// clusterGen and so invalidates its cached results.
func (l *local) PDF(ctx context.Context, req PDFRequest) (PDFResponse, error) {
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return PDFResponse{}, err
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return PDFResponse{}, errf(http.StatusBadRequest, "pdf: %v", err)
	}
	l.dsMu.RLock()
	pdf, err := l.ds.DatasetPDFContext(ctx, x)
	l.dsMu.RUnlock()
	if err != nil {
		return PDFResponse{}, serviceError(err)
	}
	return PDFResponse{PDF: pdf, K: len(pdf)}, nil
}

// Fit explicitly fits the clustering model — the cluster router's
// coordinated bootstrap: every shard is fitted on the same full batch
// (and the shards share an embedder seed), so the replicated models
// agree and scatter-gather reductions stay exact. Idempotent: a fitted
// service reports its K and does nothing.
func (l *local) Fit(ctx context.Context, req FitRequest) (FitResponse, error) {
	if req.K <= 0 {
		return FitResponse{}, errf(http.StatusBadRequest, "fit: k must be positive, got %d", req.K)
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return FitResponse{}, err
	}
	l.dsMu.Lock()
	defer l.dsMu.Unlock()
	if k := l.ds.K(); k > 0 {
		return FitResponse{K: k}, nil
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return FitResponse{}, errf(http.StatusBadRequest, "fit: %v", err)
	}
	if err := l.ds.FitClustersK(x, req.K); err != nil {
		return FitResponse{}, serviceError(err)
	}
	l.clusterK.Store(int64(l.ds.K()))
	l.clusterGen.Add(1)
	l.logger.Info("fitted clusters (explicit)", "k", req.K, "samples", len(samples))
	return FitResponse{K: l.ds.K(), Fitted: true}, nil
}

// Samples fetches stored samples by ID — the cluster router's lookup
// merge retrieves each shard's contribution through this.
func (l *local) Samples(ctx context.Context, req SamplesRequest) (SamplesResponse, error) {
	if len(req.IDs) == 0 {
		return SamplesResponse{}, errf(http.StatusBadRequest, "samples: empty id list")
	}
	l.dsMu.RLock()
	samples, missing, err := l.ds.SamplesByIDContext(ctx, req.IDs, req.Partial)
	l.dsMu.RUnlock()
	if err != nil {
		if !req.Partial {
			// A miss on the strict path is the caller naming an unknown
			// document, not a server fault.
			return SamplesResponse{}, errf(http.StatusNotFound, "samples: %v", err)
		}
		return SamplesResponse{}, serviceError(err)
	}
	return SamplesResponse{Samples: FromCodecSlice(samples), Missing: missing}, nil
}

// ClusterIDs lists one cluster's document IDs (sorted) — the
// candidate-gathering half of the router's lookup merge.
func (l *local) ClusterIDs(ctx context.Context, req ClusterIDsRequest) (ClusterIDsResponse, error) {
	if req.Cluster < 0 {
		return ClusterIDsResponse{}, errf(http.StatusBadRequest, "ids: negative cluster %d", req.Cluster)
	}
	l.dsMu.RLock()
	ids, err := l.ds.ClusterDocIDs(ctx, req.Cluster)
	l.dsMu.RUnlock()
	if err != nil {
		return ClusterIDsResponse{}, serviceError(err)
	}
	return ClusterIDsResponse{IDs: ids}, nil
}

// ---------------------------------------------------------------------------
// Model plane

func (l *local) AddModel(ctx context.Context, req AddModelRequest) (ModelInfo, error) {
	if len(req.State) == 0 {
		return ModelInfo{}, errf(http.StatusBadRequest, "models: empty state blob")
	}
	sd, err := nn.StateDictFromBytes(req.State)
	if err != nil {
		return ModelInfo{}, errf(http.StatusBadRequest, "models: %v", err)
	}
	if err := l.zoo.Add(req.ID, sd, req.PDF, req.Meta); err != nil {
		// Only a duplicate ID is a conflict; everything else Add rejects
		// (empty ID, invalid PDF) is a malformed request.
		if errors.Is(err, fairms.ErrDuplicateID) {
			return ModelInfo{}, errc(http.StatusConflict, CodeConflict, "%v", err)
		}
		return ModelInfo{}, errf(http.StatusBadRequest, "%v", err)
	}
	l.zooGen.Add(1) // recommend results computed against the old zoo are stale
	return ModelInfo{ID: req.ID, K: len(req.PDF), Meta: req.Meta}, nil
}

func (l *local) Models(ctx context.Context) (ModelsResponse, error) {
	ids := l.zoo.IDs()
	models := make([]ModelInfo, 0, len(ids))
	for _, id := range ids {
		rec, err := l.zoo.Get(id)
		if err != nil {
			continue // removed between IDs() and Get()
		}
		models = append(models, ModelInfo{
			ID: rec.ID, K: len(rec.TrainPDF), Meta: rec.Meta, AddedAt: rec.AddedAt,
		})
	}
	return ModelsResponse{Models: models}, nil
}

// Recommend is memoized by the server (see memoized): a model landing in
// the zoo bumps zooGen and so invalidates its cached results.
func (l *local) Recommend(ctx context.Context, req RecommendRequest) (RecommendResponse, error) {
	_, sp := obs.StartSpan(ctx, "zoo_rank")
	ranked, err := l.zoo.Rank(req.PDF)
	sp.End()
	if err != nil {
		return RecommendResponse{}, errf(http.StatusBadRequest, "%v", err)
	}
	if len(ranked) == 0 {
		return RecommendResponse{OK: false}, nil
	}
	best := ranked[0]
	if req.MaxJSD > 0 && best.JSD > req.MaxJSD {
		return RecommendResponse{JSD: best.JSD, OK: false}, nil
	}
	return RecommendResponse{ID: best.Record.ID, JSD: best.JSD, OK: true}, nil
}

func (l *local) Checkpoint(ctx context.Context, id string) ([]byte, error) {
	rec, err := l.zoo.Get(id)
	if err != nil {
		return nil, errf(http.StatusNotFound, "%v", err)
	}
	blob, err := rec.State.Bytes()
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "encoding checkpoint %s: %v", id, err)
	}
	return blob, nil
}

// ---------------------------------------------------------------------------
// Training plane

// SubmitTrain enqueues a server-side training job. Queue saturation
// surfaces as 429 — training backpressure, distinct from the global
// admission gate — and an unfitted clustering model as 409 (the job could
// only fail asynchronously on its PDF computation otherwise).
func (l *local) SubmitTrain(ctx context.Context, req TrainRequest) (TrainJob, error) {
	if l.trainer == nil {
		return TrainJob{}, errTrainingDisabled
	}
	if l.clusterK.Load() == 0 {
		return TrainJob{}, errc(http.StatusConflict, CodeNotFitted, "train: %v", fairds.ErrNotFitted)
	}
	spec := trainer.Spec{
		Dataset:     req.Dataset,
		Model:       req.Model,
		Hidden:      req.Hidden,
		Epochs:      req.Epochs,
		BatchSize:   req.BatchSize,
		LR:          req.LR,
		TargetLoss:  req.TargetLoss,
		Patience:    req.Patience,
		MaxJSD:      req.MaxJSD,
		ValFraction: req.ValFraction,
		Seed:        req.Seed,
		ModelID:     req.ModelID,
		Meta:        req.Meta,
	}
	if len(req.Samples) > 0 {
		samples, err := decodeSamples(req.Samples)
		if err != nil {
			return TrainJob{}, err
		}
		spec.Samples = samples
	}
	st, err := l.trainer.Submit(spec)
	switch {
	case errors.Is(err, trainer.ErrQueueFull):
		return TrainJob{}, errf(http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, trainer.ErrShutdown):
		return TrainJob{}, errf(http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		return TrainJob{}, errf(http.StatusBadRequest, "%v", err)
	}
	return wireTrainJob(st, true), nil
}

func (l *local) TrainJobs(ctx context.Context) (TrainListResponse, error) {
	if l.trainer == nil {
		return TrainListResponse{}, errTrainingDisabled
	}
	statuses := l.trainer.List()
	resp := TrainListResponse{Jobs: make([]TrainJob, len(statuses))}
	for i, st := range statuses {
		resp.Jobs[i] = wireTrainJob(st, false) // curves only in the detail view
	}
	return resp, nil
}

func (l *local) TrainJob(ctx context.Context, id string) (TrainJob, error) {
	if l.trainer == nil {
		return TrainJob{}, errTrainingDisabled
	}
	st, err := l.trainer.Get(id)
	if err != nil {
		return TrainJob{}, errf(http.StatusNotFound, "%v", err)
	}
	return wireTrainJob(st, true), nil
}

func (l *local) CancelTrain(ctx context.Context, id string) (TrainJob, error) {
	if l.trainer == nil {
		return TrainJob{}, errTrainingDisabled
	}
	st, err := l.trainer.Cancel(id)
	if err != nil {
		return TrainJob{}, errf(http.StatusNotFound, "%v", err)
	}
	return wireTrainJob(st, true), nil
}

// wireTrainJob converts a trainer status snapshot to its wire form.
func wireTrainJob(st *trainer.Status, withCurves bool) TrainJob {
	j := TrainJob{
		ID:          st.ID,
		State:       string(st.State),
		Model:       st.Model,
		Dataset:     st.Dataset,
		Samples:     st.Samples,
		Warm:        st.Warm,
		Foundation:  st.Foundation,
		JSD:         st.JSD,
		Epochs:      st.Epochs,
		Converged:   st.Converged,
		ConvergedAt: st.ConvergedAt,
		ModelID:     st.ModelID,
		Error:       st.Err,
		SubmittedAt: st.SubmittedAt,
		StartedAt:   st.StartedAt,
		FinishedAt:  st.FinishedAt,
	}
	if withCurves {
		j.TrainLoss = st.TrainLoss
		j.ValLoss = st.ValLoss
	}
	return j
}

// Health answers without dsMu: clusterK is the backend's own mirror, and
// StoreCount only touches the internally synchronized store — so liveness
// answers even while a bootstrap fit holds dsMu exclusively.
func (l *local) Health(ctx context.Context) (HealthResponse, error) {
	return HealthResponse{
		Status:  "ok",
		K:       int(l.clusterK.Load()),
		Models:  l.zoo.Len(),
		Samples: l.ds.StoreCount(),
	}, nil
}

// ---------------------------------------------------------------------------
// Helpers

// serviceError maps library errors to HTTP status codes: an unfitted
// clustering model is the caller's sequencing problem (the service is up
// but not ready for lookups — 409), everything else is internal (500).
func serviceError(err error) error {
	var se *StatusError
	if errors.As(err, &se) {
		return err
	}
	if errors.Is(err, fairds.ErrNotFitted) {
		return errc(http.StatusConflict, CodeNotFitted, "%v", err)
	}
	return errf(http.StatusInternalServerError, "%v", err)
}

// decodeSamples converts and validates untrusted wire samples. Every
// data-plane call passes its input through here, so a shape/dtype/
// payload mismatch becomes a 400 instead of a panic deeper in the stack
// (codec.Sample.Floats indexes Data by shape, and Dtype.Size panics on
// unknown dtypes).
func decodeSamples(ws []Sample) ([]*codec.Sample, error) {
	if len(ws) == 0 {
		return nil, errf(http.StatusBadRequest, "empty sample batch")
	}
	out := make([]*codec.Sample, len(ws))
	for i := range ws {
		s, err := decodeSample(ws[i])
		if err != nil {
			return nil, errf(http.StatusBadRequest, "sample %d: %v", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// decodeSample converts and validates one untrusted wire sample. The batch
// ingest calls it per document so one bad sample yields a DocError
// instead of failing the whole request.
func decodeSample(w Sample) (*codec.Sample, error) {
	if d := codec.Dtype(w.Dtype); d < codec.U8 || d > codec.F64 {
		return nil, fmt.Errorf("unknown dtype %d", w.Dtype)
	}
	s := w.ToCodec()
	if s.Elems() <= 0 {
		return nil, fmt.Errorf("shape %v has no elements", s.Shape)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
