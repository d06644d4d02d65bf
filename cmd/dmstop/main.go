// Command dmstop is a live terminal dashboard for a fairDMS fleet: it
// polls a dmsrouter's /statsz (and each shard's, via the router's
// membership list) and redraws one screen of per-shard health, RPS,
// latency quantiles, WAL lag, ejections, and SLO burn rates. Pointed at
// a single dmsd instead, it shows that daemon's endpoint table.
//
// Built on stdlib only — plain ANSI clear-and-redraw, no terminal
// library — so it runs anywhere the daemons do.
//
// Usage:
//
//	dmstop -addr 127.0.0.1:7718              # live, redraw every 2s
//	dmstop -addr 127.0.0.1:7718 -once        # one snapshot (scripts, CI)
//	dmstop -addr 127.0.0.1:7718 -interval 1s
//
// -once prints a single snapshot without clearing the screen and exits 0
// on success, making it usable as a smoke probe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"fairdms/internal/dmsapi"
)

// poller fetches and joins the fleet state, remembering the previous
// request counters so RPS is a true delta between polls.
type poller struct {
	addr     string
	client   *http.Client
	lastPoll time.Time
	lastReqs map[string]int64 // addr (or "" for the router) → requests at lastPoll
}

func newPoller(addr string, timeout time.Duration) *poller {
	return &poller{
		addr:     addr,
		client:   &http.Client{Timeout: timeout},
		lastReqs: make(map[string]int64),
	}
}

func (p *poller) getJSON(addr, path string, v any) error {
	resp, err := p.client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// rps converts a request counter into requests/second: delta against the
// previous poll when there is one, lifetime average otherwise.
func (p *poller) rps(key string, requests int64, uptime float64, now time.Time) float64 {
	prev, seen := p.lastReqs[key]
	p.lastReqs[key] = requests
	if seen && !p.lastPoll.IsZero() {
		if dt := now.Sub(p.lastPoll).Seconds(); dt > 0 {
			return float64(requests-prev) / dt
		}
	}
	if uptime > 0 {
		return float64(requests) / uptime
	}
	return 0
}

// walLag reports the shard's unsynced WAL appends (appends - syncs): a
// growing lag means the fsync loop is falling behind the write rate.
func walLag(ws *dmsapi.WalStats) string {
	if ws == nil || !ws.Enabled {
		return "-"
	}
	lag := ws.Appends - ws.Syncs
	if lag < 0 {
		lag = 0
	}
	return fmt.Sprintf("%d", lag)
}

func fmtMS(v float64) string { return fmt.Sprintf("%.2f", v) }

// render draws one frame into a builder; the caller decides whether to
// clear the screen first.
func render(b *strings.Builder, p *poller, now time.Time) error {
	// Both tiers serve the same Stats; a router's carries the cluster block.
	var st dmsapi.Stats
	if err := p.getJSON(p.addr, dmsapi.PathStats, &st); err != nil {
		return err
	}
	if st.Cluster == nil || st.Cluster.Shards == 0 {
		renderSingle(b, p, st, now)
	} else {
		renderCluster(b, p, st, now)
	}
	return nil
}

func header(b *strings.Builder, kind, addr string, uptime float64, version, revision string) {
	rev := revision
	if len(rev) > 10 {
		rev = rev[:10]
	}
	fmt.Fprintf(b, "dmstop · %s %s · up %s · build %s@%s\n\n",
		kind, addr, (time.Duration(uptime) * time.Second).String(), version, rev)
}

func renderCluster(b *strings.Builder, p *poller, st dmsapi.Stats, now time.Time) {
	header(b, "router", p.addr, st.UptimeSeconds, st.Version, st.Revision)
	fmt.Fprintf(b, "cluster: epoch %d · %d/%d shards healthy · %d degraded responses · %d reroutes · router %.1f rps\n\n",
		st.Cluster.Epoch, st.Cluster.HealthyShards, st.Cluster.Shards,
		st.Cluster.DegradedResponses, st.Cluster.Reroutes,
		p.rps("", st.Requests, st.UptimeSeconds, now))

	// Shards: the router's health view joined with each live shard's own
	// /statsz for RPS, latency, and WAL lag.
	fmt.Fprintf(b, "%-22s %-8s %-6s %9s %9s %9s %9s %8s %5s\n",
		"SHARD", "HEALTH", "FAILS", "RPS", "P50 MS", "P99 MS", "P999 MS", "WAL LAG", "EJECT")
	for _, ns := range st.Cluster.Nodes {
		// Each shard row joins the router's health view with the shard's
		// own /statsz (skipped while the shard is ejected).
		var shardStats *dmsapi.Stats
		if ns.Healthy {
			var ss dmsapi.Stats
			if err := p.getJSON(ns.Addr, dmsapi.PathStats, &ss); err == nil {
				shardStats = &ss
			}
		}
		health := "ok"
		if !ns.Healthy {
			health = "DOWN"
		}
		rps, p50, p99, p999, lag := "-", "-", "-", "-", "-"
		if s := shardStats; s != nil {
			rps = fmt.Sprintf("%.1f", p.rps(ns.Addr, s.Requests, s.UptimeSeconds, now))
			var agg dmsapi.EndpointStats
			// Worst-case view across endpoints: the slowest quantile any
			// endpoint reports this poll.
			for _, ep := range s.Endpoints {
				agg.P50MS = max(agg.P50MS, ep.P50MS)
				agg.P99MS = max(agg.P99MS, ep.P99MS)
				agg.P999MS = max(agg.P999MS, ep.P999MS)
			}
			p50, p99, p999 = fmtMS(agg.P50MS), fmtMS(agg.P99MS), fmtMS(agg.P999MS)
			lag = walLag(s.Wal)
		}
		fmt.Fprintf(b, "%-22s %-8s %-6d %9s %9s %9s %9s %8s %5d\n",
			ns.Addr, health, ns.ConsecutiveFails, rps, p50, p99, p999, lag, ns.Ejections)
	}

	// The router's own endpoint table (top by request count).
	b.WriteString("\n")
	fmt.Fprintf(b, "%-22s %10s %8s %9s %9s %9s\n", "ENDPOINT", "COUNT", "ERRORS", "P50 MS", "P99 MS", "MAX MS")
	names := make([]string, 0, len(st.Endpoints))
	for name, ep := range st.Endpoints {
		if ep.Count > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return st.Endpoints[names[i]].Count > st.Endpoints[names[j]].Count })
	for _, name := range names {
		ep := st.Endpoints[name]
		fmt.Fprintf(b, "%-22s %10d %8d %9s %9s %9s\n",
			name, ep.Count, ep.Errors, fmtMS(ep.P50MS), fmtMS(ep.P99MS), fmtMS(ep.MaxMS))
	}

	if len(st.SLO) > 0 {
		b.WriteString("\n")
		fmt.Fprintf(b, "%-28s %10s %10s %10s %8s\n", "SLO", "BUDGET", "FAST BURN", "SLOW BURN", "STATE")
		for _, s := range st.SLO {
			state := "ok"
			if s.Breaching {
				state = "BREACH"
			}
			fmt.Fprintf(b, "%-28s %10.4f %10.2f %10.2f %8s\n",
				s.Objective, s.Budget, s.FastBurn, s.SlowBurn, state)
		}
	}
}

func renderSingle(b *strings.Builder, p *poller, st dmsapi.Stats, now time.Time) {
	header(b, "dmsd", p.addr, st.UptimeSeconds, st.Version, st.Revision)
	fmt.Fprintf(b, "%.1f rps · %d in flight · %d shed · wal lag %s\n\n",
		p.rps("", st.Requests, st.UptimeSeconds, now), st.InFlight, st.Shed, walLag(st.Wal))
	fmt.Fprintf(b, "%-22s %10s %8s %9s %9s %9s %9s\n",
		"ENDPOINT", "COUNT", "ERRORS", "P50 MS", "P99 MS", "P999 MS", "MAX MS")
	names := make([]string, 0, len(st.Endpoints))
	for name, ep := range st.Endpoints {
		if ep.Count > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return st.Endpoints[names[i]].Count > st.Endpoints[names[j]].Count })
	for _, name := range names {
		ep := st.Endpoints[name]
		fmt.Fprintf(b, "%-22s %10d %8d %9s %9s %9s %9s\n",
			name, ep.Count, ep.Errors, fmtMS(ep.P50MS), fmtMS(ep.P99MS), fmtMS(ep.P999MS), fmtMS(ep.MaxMS))
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7718", "router or dmsd address to poll")
	interval := flag.Duration("interval", 2*time.Second, "poll and redraw cadence")
	timeout := flag.Duration("timeout", 3*time.Second, "per-request HTTP timeout")
	once := flag.Bool("once", false, "print one snapshot and exit (scripts, CI)")
	flag.Parse()

	p := newPoller(*addr, *timeout)
	for {
		now := time.Now()
		var b strings.Builder
		err := render(&b, p, now)
		p.lastPoll = now
		if err != nil {
			if *once {
				fmt.Fprintf(os.Stderr, "dmstop: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "dmstop: %v (retrying in %s)\n", err, *interval)
		} else {
			if !*once {
				// ANSI clear screen + home: full redraw each frame.
				fmt.Print("\x1b[2J\x1b[H")
			}
			fmt.Print(b.String())
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}
