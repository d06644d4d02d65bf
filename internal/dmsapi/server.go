package dmsapi

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/hdrhist"
	"fairdms/internal/obs"
)

// Defaults for ServerConfig zero values.
const (
	defaultMaxInFlight  = 64
	defaultCacheSize    = 128
	defaultMaxBodyBytes = 256 << 20 // 256 MiB: generous for sample batches, blocks runaway bodies
	defaultMaxBatchDocs = 8192      // documents per ingest:batch request
)

// ServerConfig wires a Server to its backend and tunes its behavior.
// Fields marked "in-process only" configure the in-process backend; a
// server over a Backend rejects them.
type ServerConfig struct {
	// Backend serves the /v1 surface from outside this process — the
	// cluster router passes its dmscluster.Cluster. Nil serves DS and Zoo
	// in-process (dmsd).
	Backend Backend
	// DS is the FAIR Data Service instance to serve (in-process only;
	// required there).
	DS *fairds.Service
	// Zoo is the FAIR Model Service model zoo to serve (in-process only;
	// required there).
	Zoo *fairms.Zoo
	// MaxInFlight bounds concurrently handled requests; excess load is shed
	// with 429 so a burst degrades into fast rejections instead of a pileup
	// (health, stats and debug endpoints are exempt). Zero means
	// defaultMaxInFlight; negative means unlimited.
	MaxInFlight int
	// MaxBodyBytes caps request-body size; oversized bodies fail with 413
	// instead of occupying memory and an admission slot indefinitely. Zero
	// means defaultMaxBodyBytes; negative means unlimited.
	MaxBodyBytes int64
	// MaxBatchDocs caps documents per ingest:batch request (413 beyond it),
	// bounding the work one request can pin. Zero means
	// defaultMaxBatchDocs; negative means unlimited.
	MaxBatchDocs int
	// CacheSize bounds the LRU of completed recommend/PDF results
	// (in-process only). Zero means defaultCacheSize; negative disables
	// memoization (in-flight coalescing stays on).
	CacheSize int
	// BootstrapK, when positive, lets a daemon start with an unfitted data
	// service: the first ingest fits the clustering module with K =
	// BootstrapK on that batch before storing it (in-process only). Zero
	// requires the caller to have fitted clusters already.
	BootstrapK int
	// TrainWorkers enables the embedded training subsystem (/v1/train):
	// the number of jobs trained in parallel (in-process only). Zero
	// disables training (the /v1/train routes answer 404).
	TrainWorkers int
	// TrainQueue bounds jobs waiting for a training worker; submissions
	// past it are shed with 429 (in-process only). Zero means
	// trainer.DefaultQueue.
	TrainQueue int
	// WalStats, when non-nil, surfaces the durability counters of a
	// WAL-backed document store on /statsz (the "wal" key) and /metricsz
	// (the dms_wal_* families). In-process only; nil omits the surface.
	WalStats func() WalStats
	// SlowThreshold is the latency at which a request or train job counts
	// as slow: it bumps the slow counter, and with TraceRing on its span
	// tree is retained and served by GET /debug/slowz. Zero or negative
	// keeps only errored and degraded trees, and /debug/slowz answers 404.
	SlowThreshold time.Duration
	// TraceRing sizes the one trace-retention ring, read by GET
	// /debug/tracez and /debug/slowz: every data request and train job is
	// traced, and its span tree kept if it errored, was answered degraded,
	// or took at least SlowThreshold. Zero or negative disables retention
	// and with it the per-request tracing cost of unsampled requests (both
	// routes answer 404).
	TraceRing int
	// SLOs are the per-endpoint objectives evaluated over rolling windows
	// (parse with obs.ParseSLOs), surfaced as the /statsz slo block and
	// the dms_slo_* families. Empty disables the SLO layer.
	SLOs []obs.SLO
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling surface should not be reachable on every deployment).
	EnablePprof bool
	// Logger receives failed requests (5xx at warn, the rest at debug)
	// and backend lifecycle events; nil silences them.
	Logger *obs.Logger
}

// Server is the HTTP front end of both tiers: it serves a Backend's /v1
// surface behind one middleware stack — body cap, bounded in-flight
// admission with 429 shedding, trace build and propagation, per-endpoint
// metrics, SLO scoring, trace retention, the error envelope, and failure
// logging — plus /statsz, /metricsz, the trace-ring views and graceful
// shutdown. Safe for concurrent use.
type Server struct {
	cfg ServerConfig
	b   Backend
	// local is the in-process backend (nil behind a router); it adds the
	// shard-internal routes and the cache/index/train/wal surfaces.
	local *local
	// fleet is the Backend's fleet side (nil on dmsd).
	fleet Fleet
	// rootSpan names each request's root span: "request" on dmsd, "route"
	// on the router, so a client's joined trace tells the tiers apart.
	rootSpan string

	mux   *http.ServeMux
	http  *http.Server
	lis   net.Listener
	start time.Time

	// sem is the in-flight admission semaphore (nil = unlimited).
	sem      chan struct{}
	inFlight atomic.Int64
	shed     atomic.Int64
	requests atomic.Int64

	metrics map[string]*endpointMetrics

	// reg is the central metrics registry behind GET /metricsz; every
	// /statsz counter is mirrored into it as a func-backed metric reading
	// the same atomics, so the two surfaces cannot drift.
	reg *obs.Registry
	// traces is the retention ring behind /debug/tracez and /debug/slowz,
	// slow counts requests and train jobs at or over SlowThreshold, slo
	// holds the objectives.
	traces *obs.TraceLog
	slow   atomic.Int64
	slo    *obs.SLOEvaluator

	epErrors  *obs.CounterVec
	epLatency *obs.HistogramVec
}

// endpointMetrics accumulates per-endpoint counters. Both live in the
// metrics registry (error counter and latency histogram keyed by
// endpoint), so /statsz and /metricsz read the very same atomics; the
// histogram is lock-free, so neither the request path nor a concurrent
// scrape ever serializes on a stats lock.
type endpointMetrics struct {
	errors *obs.Counter
	hist   *hdrhist.Histogram
}

// routeKind sets which cross-cutting rules a route is under.
type routeKind int

const (
	// admitted routes are shed with 429 when the server is saturated.
	admitted routeKind = iota
	// exempt routes are never shed (see the train routes in NewServer).
	exempt
	// meta routes are the server's own observability surfaces: never
	// shed, and neither SLO-scored, counted slow nor retained, so a
	// dashboard polling /statsz or /debug/slowz cannot burn an error
	// budget or wash real traces out of the ring.
	meta
)

// handler is the shape every route serves: write the success body, or
// return the error the middleware turns into the envelope.
type handler func(w http.ResponseWriter, r *http.Request) error

// NewServer validates the config and builds the routing table; call Listen
// to start serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend != nil && (cfg.DS != nil || cfg.Zoo != nil || cfg.CacheSize != 0 || cfg.BootstrapK != 0 ||
		cfg.TrainWorkers != 0 || cfg.TrainQueue != 0 || cfg.WalStats != nil) {
		return nil, errors.New("dmsapi: DS, Zoo, CacheSize, BootstrapK, TrainWorkers, TrainQueue and WalStats " +
			"configure the in-process backend; a server over a Backend takes none of them")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.MaxBatchDocs == 0 {
		cfg.MaxBatchDocs = defaultMaxBatchDocs
	}
	s := &Server{
		cfg:     cfg,
		b:       cfg.Backend,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		metrics: make(map[string]*endpointMetrics),
		reg:     obs.NewRegistry(),
		traces:  obs.NewTraceLog(cfg.TraceRing),
		slo:     obs.NewSLOEvaluator(cfg.SLOs),
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	// Family prefix: dms_* on a shard, dms_router_* on the router, so a
	// federated exposition keeps the two tiers' series apart.
	prefix := "dms_"
	s.rootSpan = "request"
	if s.b == nil {
		l, err := newLocal(cfg, s.reg, s.retain)
		if err != nil {
			return nil, err
		}
		s.local, s.b = l, l
	} else {
		prefix, s.rootSpan = "dms_router_", "route"
		if f, ok := s.b.(Fleet); ok {
			s.fleet = f
			f.RegisterMetrics(s.reg)
		}
	}
	s.registerMetrics(prefix)

	s.route("POST "+PathIngest, "data.ingest", admitted, s.handleIngest)
	s.route("POST "+PathIngestBatch, "data.ingest_batch", admitted, s.handleIngestBatch)
	s.route("POST "+PathCertainty, "data.certainty", admitted, withBody(http.StatusOK, s.b.Certainty))
	s.route("POST "+PathLookup, "data.lookup", admitted, withBody(http.StatusOK, s.b.Lookup))
	s.route("POST "+PathNearest, "data.nearest", admitted, withBody(http.StatusOK, s.b.Nearest))
	pdf, recommend := withBody(http.StatusOK, s.b.PDF), withBody(http.StatusOK, s.b.Recommend)
	if s.local != nil {
		// dmsd memoizes PDF and recommend results in its coalescing cache.
		pdf = memoized(s.local.cache, "pdf", &s.local.clusterGen, s.local.PDF)
		recommend = memoized(s.local.cache, "rec", &s.local.zooGen, s.local.Recommend)
	}
	s.route("POST "+PathPDF, "data.pdf", admitted, pdf)
	if s.local != nil {
		// Shard-internal calls the router's bootstrap and lookup merge are
		// built on; a router does not re-export them.
		s.route("POST "+PathFit, "data.fit", admitted, withBody(http.StatusOK, s.local.Fit))
		s.route("POST "+PathSamples, "data.samples", admitted, withBody(http.StatusOK, s.local.Samples))
		s.route("POST "+PathClusterIDs, "data.ids", admitted, withBody(http.StatusOK, s.local.ClusterIDs))
	}
	s.route("POST "+PathModels, "models.add", admitted, withBody(http.StatusOK, s.b.AddModel))
	s.route("GET "+PathModels, "models.list", admitted, noBody(s.b.Models))
	s.route("POST "+PathRecommend, "models.recommend", admitted, recommend)
	s.route("GET "+PathCheckpoint, "models.checkpoint", admitted, s.handleCheckpoint)
	// Train submissions are not shed by the global admission gate: the
	// trainer's own bounded queue is the backpressure (429 on saturation),
	// and a queued submission costs almost nothing while held. Cancels are
	// exempt too — under overload, the one request that frees an expensive
	// training worker must not be the one rejected. Status reads stay shed
	// like any other read.
	s.route("POST "+PathTrain, "train.submit", exempt, withBody(http.StatusAccepted, s.b.SubmitTrain))
	s.route("GET "+PathTrain, "train.list", admitted, noBody(s.b.TrainJobs))
	s.route("GET "+PathTrainJob, "train.get", admitted, func(w http.ResponseWriter, r *http.Request) error {
		job, err := s.b.TrainJob(r.Context(), r.PathValue("id"))
		if err != nil {
			return err
		}
		return writeJSON(w, http.StatusOK, job)
	})
	s.route("POST "+PathTrainJob, "train.cancel", exempt, s.handleTrainCancel)
	s.route("GET "+PathHealth, "healthz", meta, noBody(s.b.Health))
	s.route("GET "+PathStats, "statsz", meta, func(w http.ResponseWriter, r *http.Request) error {
		return writeJSON(w, http.StatusOK, s.Stats())
	})
	s.route("GET "+PathMetrics, "metricsz", meta, s.handleMetrics)
	s.route("GET "+PathSlow, "slowz", meta, s.handleSlow)
	s.route("GET "+PathTraces, "tracez", meta, s.handleTraces)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Registry exposes the server's metrics registry so the daemon can hang
// additional collectors (e.g. docstore RPC instrumentation) onto the same
// /metricsz surface.
func (s *Server) Registry() *obs.Registry { return s.reg }

// registerMetrics registers the frontend's own families under prefix;
// per-endpoint series are added lazily by route().
func (s *Server) registerMetrics(prefix string) {
	r := s.reg
	r.GaugeFunc(prefix+"uptime_seconds", "seconds since server start",
		func() float64 { return time.Since(s.start).Seconds() })
	r.CounterFunc(prefix+"requests_total", "requests handled (shed excluded)", s.requests.Load)
	r.CounterFunc(prefix+"shed_total", "requests rejected with 429 by admission control", s.shed.Load)
	r.GaugeFunc(prefix+"in_flight", "requests currently being handled",
		func() float64 { return float64(s.inFlight.Load()) })
	r.CounterFunc(prefix+"slow_requests_total", "requests and train jobs at or over the slow threshold", s.slow.Load)
	if s.traces.Enabled() {
		r.CounterFunc(prefix+"retained_traces_total", "span trees retained in the trace ring (slow, errored or degraded)", s.traces.Total)
	}
	s.slo.Register(r)
	s.epErrors = r.CounterVec(prefix+"endpoint_errors_total", "error responses by endpoint", "endpoint")
	s.epLatency = r.HistogramVec(prefix+"endpoint_latency_seconds", "request latency by endpoint", "endpoint")
}

// route registers a handler behind the middleware stack. Two costs are
// paid only when something asks for them, so an unsampled request on a
// server without a trace ring runs with a nil trace and every span call
// no-ops: a trace (with the degraded-flag context) is built only when the
// client sampled (X-Dms-Trace with ;sample) or the ring could retain the
// request, and the span trailer is encoded only when the client sampled.
func (s *Server) route(pattern, name string, kind routeKind, h handler) {
	m := &endpointMetrics{errors: s.epErrors.With(name), hist: s.epLatency.With(name)}
	s.metrics[name] = m
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		if kind == admitted && s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.shed.Add(1)
				WriteError(w, http.StatusTooManyRequests, ErrorBody{
					Code: CodeOverloaded, Message: "server at max in-flight requests", Retryable: true,
				})
				return
			}
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		s.requests.Add(1)

		id, sampled := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		retained := kind != meta && s.traces.Enabled()
		var tr *obs.Trace
		var root *obs.Span
		var degraded *atomic.Bool
		if sampled || retained {
			// Retention marks the trace sampled internally so a router's
			// shard calls carry the header and graft the shards' subtrees
			// in, even when only the ring asked for the tree.
			tr = obs.NewTrace(id, sampled || retained)
			ctx := obs.NewContext(r.Context(), tr)
			ctx, root = obs.StartSpan(ctx, s.rootSpan)
			if retained {
				ctx, degraded = withDegradedFlag(ctx)
			}
			r = r.WithContext(ctx)
		}
		if sampled {
			// The span tree is only complete after the body is written, so
			// it rides back as an HTTP trailer (chunked responses only —
			// fixed-length ones like checkpoint downloads drop it).
			w.Header().Set("Trailer", obs.SpanHeader)
		}

		begin := time.Now()
		err := h(w, r)
		d := time.Since(begin)
		root.End()
		m.observe(d, err != nil)
		if sampled {
			w.Header().Set(obs.SpanHeader, obs.EncodeDump(tr.Dump()))
		}
		if kind != meta {
			s.slo.Observe(name, d, err != nil)
			s.retain(name, d, err, degraded != nil && degraded.Load(), tr)
		}
		if err != nil {
			s.logFailure(name, r, d, err)
			WriteStatusError(w, err)
		}
	})
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	if failed {
		m.errors.Inc()
	}
	m.hist.Record(d)
}

// retain applies the one retention rule to a finished request or train
// job: keep its span tree if it errored, was degraded, or took at least
// SlowThreshold. The tree is dumped only when it is kept.
func (s *Server) retain(name string, d time.Duration, err error, degraded bool, tr *obs.Trace) {
	slow := s.cfg.SlowThreshold > 0 && d >= s.cfg.SlowThreshold
	if slow {
		s.slow.Add(1)
	}
	if !s.traces.Enabled() || (err == nil && !degraded && !slow) {
		return
	}
	e := obs.TraceEntry{
		Op:       name,
		DurMS:    durMS(d),
		At:       time.Now(),
		Degraded: degraded,
		Trace:    tr.Dump(),
	}
	if err != nil {
		e.Error = err.Error()
	}
	s.traces.Add(e)
}

// logFailure logs a failed request: server faults (5xx) at warn, the
// client's own errors and shedding at debug.
func (s *Server) logFailure(name string, r *http.Request, d time.Duration, err error) {
	status := http.StatusInternalServerError
	var se *StatusError
	if errors.As(err, &se) {
		status = se.Code
	}
	log := s.cfg.Logger.Debug
	if status >= 500 {
		log = s.cfg.Logger.Warn
	}
	log("request failed", "endpoint", name, "method", r.Method, "path", r.URL.Path,
		"status", status, "dur", d, "err", err)
}

// withBody adapts a Backend method that takes a JSON request body.
func withBody[Req, Resp any](status int, call func(context.Context, Req) (Resp, error)) handler {
	return func(w http.ResponseWriter, r *http.Request) error {
		var req Req
		if err := decodeJSON(r.Body, &req); err != nil {
			return err
		}
		resp, err := call(r.Context(), req)
		if err != nil {
			return err
		}
		return writeJSON(w, status, resp)
	}
}

// memoized adapts an in-process Backend method whose results the cache
// memoizes. The key hashes the raw request body under the current
// generation of gen, so a hit answers without decoding the request; a miss
// decodes and calls inside the coalesced compute.
func memoized[Req, Resp any](c *cache, kind string, gen *atomic.Uint64, call func(context.Context, Req) (Resp, error)) handler {
	return func(w http.ResponseWriter, r *http.Request) error {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return bodyError(err)
		}
		sum := sha256.Sum256(body)
		key := kind + ":" + strconv.FormatUint(gen.Load(), 10) + ":" + string(sum[:])
		v, err := c.do(r.Context(), key, func(ctx context.Context) (any, error) {
			var req Req
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, bodyError(err)
			}
			return call(ctx, req)
		})
		if err != nil {
			return err
		}
		return writeJSON(w, http.StatusOK, v)
	}
}

// noBody adapts a Backend method that takes no request.
func noBody[Resp any](call func(context.Context) (Resp, error)) handler {
	return func(w http.ResponseWriter, r *http.Request) error {
		resp, err := call(r.Context())
		if err != nil {
			return err
		}
		return writeJSON(w, http.StatusOK, resp)
	}
}

// Listen binds to addr ("127.0.0.1:0" picks a free port) and starts
// serving in a background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.http = &http.Server{
		Handler: s.mux,
		// Bound header reads and idle keep-alives so trickling clients
		// cannot pin connections (and admission slots) forever. No global
		// ReadTimeout: large legitimate ingest bodies stream at their own
		// pace under the MaxBodyBytes cap.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.http.Serve(lis)
	return lis.Addr().String(), nil
}

// Addr returns the bound address ("" before Listen).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests get until ctx expires to finish, and an in-process
// training subsystem stops accepting jobs, cancels the running ones, and
// drains its workers. A router's Backend lifecycle stays the caller's.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}
	if s.local != nil {
		if lerr := s.local.shutdown(ctx); lerr != nil && err == nil {
			err = lerr
		}
	}
	return err
}

// Requests reports how many requests have been handled (shed ones excluded).
func (s *Server) Requests() int64 { return s.requests.Load() }

// Shed reports how many requests were rejected with 429.
func (s *Server) Shed() int64 { return s.shed.Load() }

// buildInfo reads the running binary's identity once: Go toolchain,
// main-module version, and VCS revision (when built from a checkout).
var buildInfo = sync.OnceValue(func() (bi struct{ goVersion, version, revision string }) {
	bi.goVersion, bi.version, bi.revision = "unknown", "unknown", "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.goVersion = info.GoVersion
	if v := info.Main.Version; v != "" {
		bi.version = v
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			bi.revision = kv.Value
		}
	}
	return bi
})

// Stats snapshots the server counters (the /statsz payload).
func (s *Server) Stats() Stats {
	eps := make(map[string]EndpointStats, len(s.metrics))
	for name, m := range s.metrics {
		snap := m.hist.Snapshot()
		total := float64(snap.SumNS) / 1e6
		ep := EndpointStats{
			Count:   snap.Count,
			Errors:  m.errors.Value(),
			TotalMS: total,
			MaxMS:   float64(snap.MaxNS) / 1e6,
			P50MS:   durMS(snap.Quantile(0.50)),
			P95MS:   durMS(snap.Quantile(0.95)),
			P99MS:   durMS(snap.Quantile(0.99)),
			P999MS:  durMS(snap.Quantile(0.999)),
		}
		if snap.Count > 0 {
			ep.AverageMS = total / float64(snap.Count)
		}
		eps[name] = ep
	}
	bi := buildInfo()
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     bi.goVersion,
		Version:       bi.version,
		Revision:      bi.revision,
		InFlight:      int(s.inFlight.Load()),
		Shed:          s.shed.Load(),
		Requests:      s.requests.Load(),
		Endpoints:     eps,
		SLO:           s.slo.Status(),
	}
	if s.local != nil {
		s.local.fillStats(&st)
	}
	if s.fleet != nil {
		cs := s.fleet.Stats()
		st.Cluster = &cs
	}
	return st
}

// ---------------------------------------------------------------------------
// Handlers with more than a decode → call → encode body

// handleIngest serves the all-or-nothing single-request ingest. Every
// sample is validated up front (one shape width per request, as the
// non-batch endpoint always required), so a bad one rejects the request
// before anything commits and any failure left after that is a server
// fault. dmsd commits the request as one store write with IDs in input
// order; a router scatters it over the shards' batch path.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	var req IngestRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		return err
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return err
	}
	for i, smp := range samples[1:] {
		if smp.Elems() != samples[0].Elems() {
			return errf(http.StatusBadRequest, "ingest: sample %d has %d elements, sample 0 has %d",
				i+1, smp.Elems(), samples[0].Elems())
		}
	}
	if s.local != nil {
		ids, err := s.local.ingestAll(r.Context(), samples, req.Dataset)
		if err != nil {
			return err
		}
		return writeJSON(w, http.StatusOK, IngestResponse{IDs: ids})
	}
	resp, err := s.b.Ingest(r.Context(), IngestBatchRequest{Dataset: req.Dataset, Samples: req.Samples})
	if err != nil {
		return err
	}
	if len(resp.Errors) > 0 {
		return errf(http.StatusInternalServerError, "ingest: sample %d: %s", resp.Errors[0].Index, resp.Errors[0].Error)
	}
	return writeJSON(w, http.StatusOK, IngestResponse{IDs: resp.IDs})
}

// handleIngestBatch is the high-throughput ingest path: per-document
// failure reporting instead of all-or-nothing, bounded by MaxBatchDocs.
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) error {
	var req IngestBatchRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		return err
	}
	if len(req.Samples) == 0 {
		return errf(http.StatusBadRequest, "ingest-batch: empty sample batch")
	}
	if s.cfg.MaxBatchDocs > 0 && len(req.Samples) > s.cfg.MaxBatchDocs {
		return errf(http.StatusRequestEntityTooLarge,
			"ingest-batch: %d documents exceeds the %d-document cap (split the batch)",
			len(req.Samples), s.cfg.MaxBatchDocs)
	}
	resp, err := s.b.Ingest(r.Context(), req)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) error {
	// The backend encodes to memory first: once bytes hit the
	// ResponseWriter the status is committed, and a mid-stream failure
	// could no longer be reported as an error response.
	blob, err := s.b.Checkpoint(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	// A write failure here means the client went away; the response is
	// already committed, so there is no error body left to send.
	w.Write(blob)
	return nil
}

// handleTrainCancel serves POST /v1/train/{id}:cancel. ServeMux wildcards
// span whole segments, so the route matches POST /v1/train/{anything} and
// the ":cancel" action suffix is peeled off here.
func (s *Server) handleTrainCancel(w http.ResponseWriter, r *http.Request) error {
	id, ok := strings.CutSuffix(r.PathValue("id"), ":cancel")
	if !ok {
		return errf(http.StatusNotFound, "train: POST %s is not an action (want {id}:cancel)", r.URL.Path)
	}
	job, err := s.b.CancelTrain(r.Context(), id)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, job)
}

// handleMetrics serves the Prometheus text exposition. Every /statsz
// counter is a registry member, so the two surfaces always agree. On a
// router the fleet's federated exposition follows the router's own
// families: every healthy shard's dms_* families relabeled with
// node=<addr>, then the dms_fleet_* aggregates. The names never collide
// with the router's own dms_router_*/dms_slo_* families, so the
// concatenation stays a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	s.slo.Status() // refresh burn-rate gauges before rendering
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		return errf(http.StatusInternalServerError, "metrics export: %v", err)
	}
	if s.fleet != nil {
		w.Write(s.fleet.FleetMetrics(r.Context()))
	}
	return nil
}

// handleSlow serves GET /debug/slowz, a view of the trace ring: the
// retained span trees that took at least SlowThreshold, slowest first.
// 404 when there is no threshold or no ring (SlowThreshold <= 0 or
// TraceRing <= 0), so probers can distinguish "off" from "empty".
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) error {
	if s.cfg.SlowThreshold <= 0 {
		return errf(http.StatusNotFound, "%v", obs.ErrDisabled)
	}
	threshold := durMS(s.cfg.SlowThreshold)
	kept, err := s.traces.Slow(threshold)
	if errors.Is(err, obs.ErrDisabled) {
		return errf(http.StatusNotFound, "%v", err)
	}
	if err != nil {
		return errf(http.StatusInternalServerError, "slowz: %v", err)
	}
	entries := make([]SlowEntry, len(kept))
	for i, e := range kept {
		entries[i] = SlowEntry{Endpoint: e.Op, DurMS: e.DurMS, At: e.At, Trace: e.Trace}
	}
	return writeJSON(w, http.StatusOK, SlowzResponse{ThresholdMS: threshold, Total: s.slow.Load(), Entries: entries})
}

// handleTraces serves GET /debug/tracez: the retained span trees,
// newest first, filterable by ?op=&min_ms=&error=&degraded=. 404 when
// the ring is disabled (TraceRing <= 0).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) error {
	q := obs.TraceQuery{Op: r.URL.Query().Get("op")}
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return errf(http.StatusBadRequest, "tracez: bad min_ms: %v", err)
		}
		q.MinMS = ms
	}
	for _, f := range []struct {
		name string
		dst  **bool
	}{{"error", &q.Error}, {"degraded", &q.Degraded}} {
		if v := r.URL.Query().Get(f.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return errf(http.StatusBadRequest, "tracez: bad %s: %v", f.name, err)
			}
			*f.dst = &b
		}
	}
	entries, err := s.traces.Query(q)
	if errors.Is(err, obs.ErrDisabled) {
		return errf(http.StatusNotFound, "%v", err)
	}
	if err != nil {
		return errf(http.StatusInternalServerError, "tracez: %v", err)
	}
	return writeJSON(w, http.StatusOK, TracezResponse{Total: s.traces.Total(), Traces: entries})
}

// ---------------------------------------------------------------------------
// Helpers

// durMS converts a duration to fractional milliseconds for wire stats.
func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// decodeJSON decodes a request body (see bodyError for the failures).
func decodeJSON(r io.Reader, v any) error {
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return bodyError(err)
	}
	return nil
}

// bodyError maps a failure to read or decode a request body: a body over
// the MaxBodyBytes cap is 413, anything else undecodable 400.
func bodyError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return errf(http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte cap", tooBig.Limit)
	}
	return errf(http.StatusBadRequest, "decoding request: %v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}
