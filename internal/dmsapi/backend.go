package dmsapi

import (
	"context"
	"sync/atomic"

	"fairdms/internal/obs"
)

// Backend is the /v1 surface as ctx-first Go methods over the wire types:
// what a Server serves. The in-process backend (dmsd) answers from this
// process's data service and zoo; dmscluster.Cluster answers by routing
// to shards. Errors that should reach the client with a specific status
// are *StatusError; anything else becomes a 500/internal.
type Backend interface {
	// Ingest stores a batch; per-document failures ride the response.
	Ingest(ctx context.Context, req IngestBatchRequest) (IngestBatchResponse, error)
	Certainty(ctx context.Context, req CertaintyRequest) (CertaintyResponse, error)
	Lookup(ctx context.Context, req LookupRequest) (LookupResponse, error)
	Nearest(ctx context.Context, req NearestRequest) (NearestResponse, error)
	PDF(ctx context.Context, req PDFRequest) (PDFResponse, error)
	AddModel(ctx context.Context, req AddModelRequest) (ModelInfo, error)
	Models(ctx context.Context) (ModelsResponse, error)
	Recommend(ctx context.Context, req RecommendRequest) (RecommendResponse, error)
	// Checkpoint returns a model's gob-encoded nn.StateDict.
	Checkpoint(ctx context.Context, id string) ([]byte, error)
	SubmitTrain(ctx context.Context, req TrainRequest) (TrainJob, error)
	TrainJobs(ctx context.Context) (TrainListResponse, error)
	TrainJob(ctx context.Context, id string) (TrainJob, error)
	CancelTrain(ctx context.Context, id string) (TrainJob, error)
	Health(ctx context.Context) (HealthResponse, error)
}

// Fleet is implemented by a Backend that fronts a shard fleet
// (dmscluster.Cluster). The server registers the fleet's gauges on its
// registry, reports its membership as the /statsz cluster block, and
// appends the federated fleet exposition to its own /metricsz.
type Fleet interface {
	Stats() ClusterStats
	RegisterMetrics(reg *obs.Registry)
	FleetMetrics(ctx context.Context) []byte
}

// degradedKey carries the per-request degraded marker. The server arms it
// only when its trace ring could retain the request.
type degradedKey struct{}

// withDegradedFlag arms ctx with a degraded marker.
func withDegradedFlag(ctx context.Context) (context.Context, *atomic.Bool) {
	f := new(atomic.Bool)
	return context.WithValue(ctx, degradedKey{}, f), f
}

// MarkDegraded flags the request ctx belongs to as answered without every
// shard, so the server's trace ring keeps its span tree. A no-op when
// the server did not arm the marker.
func MarkDegraded(ctx context.Context) {
	if f, _ := ctx.Value(degradedKey{}).(*atomic.Bool); f != nil {
		f.Store(true)
	}
}
