package dmscluster

import (
	"context"
	"sync"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// Fleet metrics scraping: the router-side half of metrics federation.
// Each federated /metricsz request scrapes the currently healthy shard
// set live, so an ejected shard's series age out of the merged exposition
// the moment health probing drops it — no TTL bookkeeping.

var (
	_ dmsapi.Backend = (*Cluster)(nil)
	_ dmsapi.Fleet   = (*Cluster)(nil)
)

// RegisterMetrics registers the routing tier's membership and serving
// families on the router's registry (dmsapi.Fleet).
func (c *Cluster) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("dms_router_shards", "configured shard count",
		func() float64 { return float64(len(c.nodes)) })
	r.GaugeFunc("dms_router_healthy_shards", "shards currently admitted by health probing",
		func() float64 { return float64(len(c.healthyNodes())) })
	r.CounterFunc("dms_router_membership_epoch", "membership health transitions since start", c.epoch.Load)
	r.CounterFunc("dms_router_degraded_responses_total", "responses merged without every shard", c.degraded.Load)
	r.CounterFunc("dms_router_reroutes_total", "ingest sub-batches rerouted off their hash owner", c.reroutes.Load)
}

// FleetMetrics renders the federated fleet exposition the router appends
// to its own /metricsz (dmsapi.Fleet): every healthy shard's families
// relabeled with node=<addr>, then the dms_fleet_* aggregates.
func (c *Cluster) FleetMetrics(ctx context.Context) []byte {
	return obs.RenderExposition(obs.Federate(c.ScrapeFleet(ctx)))
}

// ScrapeFleet fetches and parses every healthy shard's /metricsz
// concurrently within Config.ScrapeTimeout, returning one NodeExposition
// per shard that answered with a parseable exposition (a shard slower
// than the timeout is simply absent from that scrape). The node identity
// is the shard address — the one name the routing tier knows shards by.
// Transport failures are charged against shard health; parse failures
// are not (the shard answered; its exposition is just unusable this
// scrape).
func (c *Cluster) ScrapeFleet(ctx context.Context) []obs.NodeExposition {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ScrapeTimeout)
	defer cancel()

	nodes := c.healthyNodes()
	out := make([]obs.NodeExposition, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			raw, err := n.client.DoRaw(ctx, "GET", dmsapi.PathMetrics, nil)
			if err != nil {
				c.shardFailure(n, err)
				c.cfg.Logger.Warn("fleet metrics scrape failed", "node", n.addr, "err", err)
				return
			}
			c.noteSuccess(n)
			fams, err := obs.ParseExposition(raw)
			if err != nil {
				c.cfg.Logger.Warn("fleet metrics unparseable", "node", n.addr, "err", err)
				return
			}
			out[i] = obs.NodeExposition{Node: n.addr, Families: fams}
		}(i, n)
	}
	wg.Wait()

	scraped := out[:0]
	for _, ne := range out {
		if ne.Node != "" {
			scraped = append(scraped, ne)
		}
	}
	return scraped
}
