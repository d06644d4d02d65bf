// Command benchdms is the repository's benchmark. It builds nothing
// itself: run.sh builds dmsd from cmd/dmsd and this program, then runs
//
//	benchdms --workload serve_read|ingest_wal|rapid_train --seed N --seconds S --trace 0|1
//
// Each run starts a fresh dmsd child several times (one "repeat" each),
// times its set-up, drives one measured phase per repeat through the
// dmsapi client, checks every answer, and prints a report followed by one
// JSON line. With --trace 0 that line carries the end-to-end metrics;
// with --trace 1 the first repeat runs untraced and the rest trace every
// request, and the line carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fairdms/internal/dmsapi"
)

const (
	// clients is the closed-loop concurrency and the connection pool size
	// of every workload: nproc is 2 on the reference machine, and the
	// generator must not take more cores than the server.
	clients = 2
	// pollPeriod is how often a waiting pipeline polls its train job.
	pollPeriod = 5 * time.Millisecond
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dmsd     string
	out      string
	repeats  int
}

// phaseSeconds is the measured time of one repeat: the run's --seconds
// are split evenly across its repeats.
func (o *options) phaseSeconds() float64 { return float64(o.seconds) / float64(o.repeats) }

// workload is one benchmark scenario.
type workload interface {
	// daemonFlags returns dmsd's flags beyond its defaults; dir is a
	// private scratch directory for this repeat.
	daemonFlags(dir string, traced bool) []string
	// setup brings a fresh daemon to the state the phase starts from.
	setup(r *repeat) error
	// warmup runs untimed load of the phase's kind after set-up, so the
	// phase does not time cold connections, caches and set-up garbage.
	warmup(r *repeat)
	// phase runs the measured load.
	phase(r *repeat)
	// after runs the untimed checks that follow the phase.
	after(r *repeat)
	// summarize turns the repeats into metrics.
	summarize(s *summary, untraced, traced []*repeat)
}

// repeats is the number of fresh daemons per run. Each repeat's phase
// samples the host's speed at a different moment, and the serving and
// ingest figures take the best repeat (see best), so those workloads take
// more, shorter phases; memory also caps ingest_wal's documents per phase.
var repeats = map[string]int{"serve_read": 5, "ingest_wal": 5, "rapid_train": 3}

func newWorkload(o *options) (workload, error) {
	o.repeats = repeats[o.workload]
	switch o.workload {
	case "serve_read":
		return newServeRead(o), nil
	case "ingest_wal":
		return newIngestWAL(o), nil
	case "rapid_train":
		return newRapidTrain(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve_read, ingest_wal or rapid_train)", o.workload)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "serve_read, ingest_wal or rapid_train")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run, split across the repeats")
	flag.IntVar(&trace, "trace", 0, "1 traces every request and reports per-layer metrics")
	flag.StringVar(&o.dmsd, "dmsd", ".bench_build/dmsd", "dmsd binary")
	flag.StringVar(&o.out, "out", ".bench_build/results", "directory for the run's result file")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchdms: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(&o))
}

func run(o *options) int {
	w, err := newWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdms:", err)
		return 2
	}
	if _, err := os.Stat(o.dmsd); err != nil {
		fmt.Fprintln(os.Stderr, "benchdms: dmsd binary:", err)
		return 1
	}
	var reps []*repeat
	for i := 0; i < o.repeats; i++ {
		// In a traced run the first repeat stays untraced: it is the
		// baseline the tracing overhead is measured against.
		r, err := runRepeat(w, o, i, o.trace && i > 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdms: %s repeat %d: %v\n", o.workload, i, err)
			return 1
		}
		reps = append(reps, r)
	}
	s := summarize(w, o, reps)
	s.print(os.Stdout)
	if err := s.write(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchdms: writing results:", err)
		return 1
	}
	line, err := s.resultLine(o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdms:", err)
		return 1
	}
	fmt.Println(line)
	if !s.correct || s.failed > 0 {
		return 1
	}
	return 0
}

// repeat is one fresh daemon: its set-up, its measured phase, and
// everything observed about both.
type repeat struct {
	idx    int
	o      *options
	traced bool
	d      *daemon
	// ctl is an untraced client for set-up, /statsz and /debug/slowz;
	// c drives the phase and traces every request when traced is set.
	ctl, c *dmsapi.Client
	book   *spanBook // nil when untraced

	lat       *recorder
	ops       atomic.Int64 // headline operations completed in the phase
	attempted atomic.Int64
	failed    atomic.Int64
	embedRows atomic.Int64 // rows the phase sent through the embedder
	chk       checker

	// exact holds values that must repeat exactly across repeats.
	exact map[string]string
	// layer holds workload-specific per-layer values.
	layer map[string]float64

	setupDur, phaseDur     time.Duration
	phaseStart             time.Time
	before, after          dmsapi.Stats
	procBefore, procAfter  procSample
	cpuBefore, cpuAfter    time.Duration // this process's CPU time
	gcs                    []gcEvent
	heapPeakMB             float64
	halves                 [2]atomic.Int64 // completions in each half of the phase
	dmsdFlags              []string
	goVersion, dmsdVersion string
}

func runRepeat(w workload, o *options, idx int, traced bool) (*repeat, error) {
	dir, err := filepath.Abs(filepath.Join(filepath.Dir(o.out), "tmp", fmt.Sprintf("%s-%d-%d", o.workload, os.Getpid(), idx)))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &repeat{idx: idx, o: o, traced: traced, lat: newRecorder(),
		exact: make(map[string]string), layer: make(map[string]float64)}
	r.dmsdFlags = w.daemonFlags(dir, traced)

	start := time.Now()
	r.d, err = startDaemon(o.dmsd, r.dmsdFlags, traced)
	if err != nil {
		return nil, err
	}
	defer r.d.stop()
	if r.ctl, err = dmsapi.NewClient(r.d.addr, dmsapi.WithPool(clients)); err != nil {
		return nil, err
	}
	defer r.ctl.Close()
	if err := w.setup(r); err != nil {
		return nil, fmt.Errorf("set-up: %w (dmsd stderr: %s)", err, r.d.stderrTail())
	}
	r.setupDur = time.Since(start)

	opts := []dmsapi.Option{dmsapi.WithPool(clients)}
	if traced {
		r.book = newSpanBook()
		opts = append(opts, dmsapi.WithTraceSample(1, r.book.addClient))
	}
	if r.c, err = dmsapi.NewClient(r.d.addr, opts...); err != nil {
		return nil, err
	}
	defer r.c.Close()
	w.warmup(r)
	// Only the phase is measured: warm-up operations count as attempted
	// (and failed), and their answers are checked, but nothing else.
	r.lat = newRecorder()
	r.ops.Store(0)
	r.embedRows.Store(0)
	r.halves[0].Store(0)
	r.halves[1].Store(0)
	if r.book != nil {
		r.book.reset()
	}
	if r.before, err = r.ctl.ServerStats(); err != nil {
		return nil, err
	}
	r.goVersion, r.dmsdVersion = r.before.GoVersion, r.before.Revision
	if r.procBefore, err = r.d.proc(); err != nil {
		return nil, err
	}
	r.cpuBefore = selfCPU()
	r.phaseStart = time.Now()
	w.phase(r)
	r.phaseDur = time.Since(r.phaseStart)
	phaseEnd := time.Now()
	r.cpuAfter = selfCPU()
	if r.procAfter, err = r.d.proc(); err != nil {
		return nil, err
	}
	if r.after, err = r.ctl.ServerStats(); err != nil {
		return nil, err
	}
	w.after(r)
	r.gcs = r.d.gcBetween(r.phaseStart, phaseEnd)
	for _, ev := range r.d.gcBetween(start, time.Now()) {
		r.heapPeakMB = max(r.heapPeakMB, ev.heapMB)
	}
	return r, nil
}

// do runs one phase operation: it counts the attempt, times it, records
// its latency under op when it succeeds and its error when it does not.
func (r *repeat) do(op string, fn func() error) bool {
	r.attempted.Add(1)
	t0 := time.Now()
	err := fn()
	ms := msSince(t0)
	if err != nil {
		r.failed.Add(1)
		r.chk.errorf("%s: %v", op, err)
		return false
	}
	r.lat.add(op, ms)
	half := 0
	if time.Since(r.phaseStart).Seconds() > r.o.phaseSeconds()/2 {
		half = 1
	}
	r.halves[half].Add(1)
	return true
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checker collects failed output checks and operation errors.
type checker struct {
	mu       sync.Mutex
	failures int
	first    []string
}

// failf records a wrong answer.
func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	c.keep("check failed: " + fmt.Sprintf(format, args...))
}

// errorf records an operation that returned an error.
func (c *checker) errorf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keep("error: " + fmt.Sprintf(format, args...))
}

func (c *checker) keep(msg string) {
	if len(c.first) < 5 {
		c.first = append(c.first, msg)
	}
}

// metric is one reported figure. n is the sample count behind a
// percentile or median (0 when not applicable).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// summary is everything a run reports.
type summary struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	problems  []string
	env       map[string]any
	// e2e are the gated end-to-end metrics (BENCHMARK.json end_to_end),
	// report the workload's own named figures, layer the per-layer
	// metrics (BENCHMARK.json per_layer).
	e2e, report, layer []metric
	exact              map[string]string
	repeats            []repeatFigures
	traces             []tracedDump
}

// repeatFigures are one repeat's raw figures, kept in the result file.
type repeatFigures struct {
	Traced   bool    `json:"traced"`
	SetupS   float64 `json:"setup_s"`
	PhaseS   float64 `json:"phase_s"`
	Ops      int64   `json:"ops"`
	OpsPerS  float64 `json:"ops_per_s"`
	PeakRSS  float64 `json:"server_peak_rss_mb"`
	GCCycles int     `json:"gc_cycles"`
}

func (s *summary) add(dst *[]metric, name string, v float64, unit string, n int) {
	*dst = append(*dst, metric{Name: name, Value: v, Unit: unit, N: n})
}

func summarize(w workload, o *options, reps []*repeat) *summary {
	s := &summary{workload: o.workload, correct: true, env: environment(o, reps)}
	var untraced, traced []*repeat
	var setups []float64
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
		setups = append(setups, r.setupDur.Seconds())
		s.repeats = append(s.repeats, repeatFigures{
			Traced: r.traced, SetupS: r.setupDur.Seconds(), PhaseS: r.phaseDur.Seconds(),
			Ops: r.ops.Load(), OpsPerS: ratio(float64(r.ops.Load()), r.phaseDur.Seconds()),
			PeakRSS: r.procAfter.hwmMB, GCCycles: len(r.gcs),
		})
		s.attempted += r.attempted.Load()
		s.failed += r.failed.Load()
		if r.chk.failures > 0 {
			s.correct = false
		}
		for _, m := range r.chk.first {
			s.problems = append(s.problems, fmt.Sprintf("repeat %d: %s", r.idx, m))
		}
		if r.book != nil {
			s.traces = append(s.traces, r.book.dumps...)
		}
	}
	s.exact = checkExact(s, reps)
	s.add(&s.e2e, "setup_s", median(setups), "s", len(setups))
	w.summarize(s, untraced, traced)
	var rss []float64
	for _, r := range untraced {
		rss = append(rss, r.procAfter.hwmMB)
	}
	s.add(&s.e2e, "server_peak_rss_mb", median(rss), "MB", len(rss))
	s.add(&s.report, "error_rate", ratio(float64(s.failed), float64(s.attempted)), "ratio", int(s.attempted))
	if o.trace {
		commonLayers(s, untraced, traced)
	}
	for _, m := range s.e2e {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			s.correct = false
			s.problems = append(s.problems, fmt.Sprintf("end-to-end metric %s is %v", m.Name, m.Value))
		}
	}
	return s
}

// checkExact compares the values every repeat recorded as exact; any
// difference fails the run.
func checkExact(s *summary, reps []*repeat) map[string]string {
	out := make(map[string]string)
	for k, v := range reps[0].exact {
		out[k] = v
		for _, r := range reps[1:] {
			if r.exact[k] != v {
				s.correct = false
				s.problems = append(s.problems, fmt.Sprintf("not repeatable: %s is %q in repeat 0 but %q in repeat %d", k, v, r.exact[k], r.idx))
			}
		}
	}
	return out
}

// rates returns each repeat's headline operations per phase second.
func rates(reps []*repeat) []float64 {
	var v []float64
	for _, r := range reps {
		v = append(v, ratio(float64(r.ops.Load()), r.phaseDur.Seconds()))
	}
	return v
}

// perRepeat returns f of each repeat's latencies of ops, and the number of
// latencies behind all of them.
func perRepeat(reps []*repeat, f func([]float64) float64, ops ...string) (v []float64, n int) {
	for _, r := range reps {
		lat := r.lat.get(ops...)
		v = append(v, f(lat))
		n += len(lat)
	}
	return v, n
}

// p returns the nearest-rank q-quantile of a latency sample.
func p(q float64) func([]float64) float64 {
	return func(v []float64) float64 { x, _ := percentile(v, q); return x }
}

// phaseSecs sums the measured phase time of reps.
func phaseSecs(reps []*repeat) float64 {
	var t float64
	for _, r := range reps {
		t += r.phaseDur.Seconds()
	}
	return t
}

// pooled returns the latencies of ops over reps.
func pooled(reps []*repeat, ops ...string) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, r.lat.get(ops...)...)
	}
	return out
}

func opsOf(reps []*repeat) float64 {
	var n int64
	for _, r := range reps {
		n += r.ops.Load()
	}
	return float64(n)
}

// commonLayers adds the per-layer metrics every workload shares; a layer
// a workload leaves idle reports 0.
func commonLayers(s *summary, untraced, traced []*repeat) {
	ops := opsOf(traced)
	var book = newSpanBook()
	var cpuS, gcCycles, gcPause, heapPeak, serverCPU, cacheHits, cacheLookups, shed float64
	var idxHits, idxLookups, rows float64
	for _, r := range traced {
		for _, d := range r.book.dumps {
			book.add(d)
		}
		cpuS += (r.cpuAfter - r.cpuBefore).Seconds()
		gcCycles += float64(len(r.gcs))
		for _, ev := range r.gcs {
			gcPause += ev.pauseMS
		}
		heapPeak = max(heapPeak, r.heapPeakMB)
		serverCPU += float64(r.procAfter.cpuTicks-r.procBefore.cpuTicks) * 1000 / clockTicks
		cacheHits += float64(r.after.Cache.Hits - r.before.Cache.Hits)
		cacheLookups += float64(r.after.Cache.Hits - r.before.Cache.Hits + r.after.Cache.Misses - r.before.Cache.Misses)
		shed += float64(r.after.Shed - r.before.Shed)
		idxHits += float64(r.after.Index.Hits - r.before.Index.Hits)
		idxLookups += float64(r.after.Index.Hits - r.before.Index.Hits + r.after.Index.Misses - r.before.Index.Misses)
		rows += float64(r.embedRows.Load())
	}
	nt := float64(len(traced))
	perOp := func(names ...string) float64 { return ratio(book.selfMS(names...), ops) }
	perReq := func(endpoint string) float64 {
		return ratio(book.selfMS("request."+endpoint), float64(book.spans("request."+endpoint)))
	}
	add := func(name string, v float64, unit string) { s.add(&s.layer, name, v, unit, 0) }

	add("client.wait_ms", ratio(float64(book.waitUS)/1e3, float64(book.roundTrips)), "ms")
	add("loadgen.cpu_s", cpuS/nt, "s")
	for _, ep := range []string{"certainty", "nearest", "recommend", "ingest_batch", "lookup", "train_submit", "train_get"} {
		add("dmsapi.request_self_ms."+ep, perReq(serverEndpoint[ep]), "ms")
	}
	add("dmsapi.cache_hit_ratio", ratio(cacheHits, cacheLookups), "ratio")
	add("dmsapi.shed", shed, "count")
	add("fairds.embed_ms", perOp("embed"), "ms")
	add("fairds.embed_rows", rows/nt, "count")
	add("fairds.certainty_ms", perOp("certainty"), "ms")
	add("fairds.pdf_ms", perOp("pdf"), "ms")
	add("fairds.codec_encode_ms", perOp("encode"), "ms")
	add("fairds.codec_decode_ms", perOp("decode"), "ms")
	add("fairds.index_hit_ratio", ratio(idxHits, idxLookups), "ratio")
	add("vecindex.probe_ms", perOp("index_probe"), "ms")
	add("vecindex.add_ms", perOp("index_add"), "ms")
	add("docstore.insert_ms", perOp("store_insert"), "ms")
	add("docstore.scan_ms", perOp("store_scan"), "ms")
	add("docstore.lookup_ms", perOp("store_lookup", "store_sample", "store_fetch"), "ms")
	add("fairms.zoo_rank_ms", perOp("zoo_rank", "recommend"), "ms")
	add("trainer.fit_ms", perOp("fit"), "ms")
	add("runtime.gc_cycles", gcCycles/nt, "count")
	add("runtime.gc_pause_ms", gcPause/nt, "ms")
	add("runtime.heap_peak_mb", heapPeak, "MB")
	add("server.cpu_ms_per_op", ratio(serverCPU, ops), "ms")
	base, tr := median(rates(untraced)), median(rates(traced))
	add("tracing.overhead_pct", 100*ratio(base-tr, base), "%")

	// Workload-specific per-layer values, averaged over traced repeats.
	keys := map[string]bool{}
	for _, r := range traced {
		for k := range r.layer {
			keys[k] = true
		}
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		var sum float64
		for _, r := range traced {
			sum += r.layer[k]
		}
		name, unit, _ := strings.Cut(k, " ")
		add(name, sum/nt, unit)
	}
	// Layers the workload did not report stay visible as 0.
	have := map[string]bool{}
	for _, m := range s.layer {
		have[m.Name] = true
	}
	for _, l := range layerDefaults {
		if !have[l.Name] {
			add(l.Name, 0, l.Unit)
		}
	}
}

// serverEndpoint maps the per-layer metric suffix to dmsd's endpoint name.
var serverEndpoint = map[string]string{
	"certainty": "data.certainty", "nearest": "data.nearest", "recommend": "models.recommend",
	"ingest_batch": "data.ingest_batch", "lookup": "data.lookup",
	"train_submit": "train.submit", "train_get": "train.get",
}

// layerDefaults are the workload-specific per-layer metrics; a workload
// that leaves the layer idle reports them as 0.
var layerDefaults = []metric{
	{Name: "client.train_poll_gap_ms", Unit: "ms"},
	{Name: "vecindex.probed_per_query", Unit: "count"},
	{Name: "wal.appends", Unit: "count"},
	{Name: "wal.bytes_per_doc", Unit: "B"},
	{Name: "wal.syncs", Unit: "count"},
	{Name: "wal.compactions", Unit: "count"},
	{Name: "fairms.zoo_size", Unit: "count"},
	{Name: "trainer.epochs_warm", Unit: "count"},
	{Name: "trainer.epochs_cold", Unit: "count"},
	{Name: "trainer.epoch_ms", Unit: "ms"},
	{Name: "trainer.queue_wait_ms", Unit: "ms"},
	{Name: "trainer.warm_starts", Unit: "count"},
	{Name: "trainer.cold_starts", Unit: "count"},
}

// print writes the human-readable report.
func (s *summary) print(w *os.File) {
	fmt.Fprintf(w, "benchdms %s\n", s.workload)
	keys := make([]string, 0, len(s.env))
	for k := range s.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %-22s %v\n", k, s.env[k])
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range ms {
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("(n=%d)", m.N)
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, n)
		}
	}
	section("end-to-end (untraced repeats)", s.e2e)
	section("workload figures (untraced repeats)", s.report)
	section("per-layer (traced repeats)", s.layer)
	for i, r := range s.repeats {
		fmt.Fprintf(w, "repeat %d: traced=%v setup %.3f s, phase %.3f s, %d ops (%.4f /s), peak RSS %.1f MB\n",
			i, r.Traced, r.SetupS, r.PhaseS, r.Ops, r.OpsPerS, r.PeakRSS)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", s.attempted, s.failed)
	for _, p := range s.problems {
		fmt.Fprintf(w, "  %s\n", p)
	}
	fmt.Fprintf(w, "correct: %v\n", s.correct)
}

// write saves the full result, span trees included, under o.out.
func (s *summary) write(o *options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	blob, err := json.Marshal(map[string]any{
		"workload": s.workload, "correct": s.correct, "attempted": s.attempted, "failed": s.failed,
		"problems": s.problems, "env": s.env, "end_to_end": s.e2e, "report": s.report,
		"per_layer": s.layer, "exact": s.exact, "repeats": s.repeats, "traces": s.traces,
	})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", s.workload, o.seed, trace)
	return os.WriteFile(filepath.Join(o.out, name), blob, 0o644)
}

// resultLine renders the final JSON line: the end-to-end metrics, or the
// per-layer ones for a traced run.
func (s *summary) resultLine(traced bool) (string, error) {
	ms := s.e2e
	if traced {
		ms = s.layer
	}
	out := make(map[string]map[string]any, len(ms))
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", errors.New("metric " + m.Name + " is not a number")
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	blob, err := json.Marshal(map[string]any{
		"correct": s.correct, "attempted": s.attempted, "failed": s.failed, "metrics": out,
	})
	return string(blob), err
}
