package dmscluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/nn"
)

// TestWireContractParity pins the /v1 wire contract across both tiers:
// every route is sent to a dmsd-shaped server and to a one-shard router
// over that same server, and both must answer with the same HTTP status
// and envelope code — valid requests, malformed JSON, unknown train ids,
// an action-less train POST, a body over the cap, and an ingest:batch
// over MaxBatchDocs.
func TestWireContractParity(t *testing.T) {
	const (
		bodyCap  = 64 << 10
		batchCap = 8
	)
	store := docstore.NewStore().Collection("peaks-parity")
	svc, err := fairds.New(poolEmbedder{dim: 6}, store, fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := dmsapi.NewServer(dmsapi.ServerConfig{
		DS: svc, Zoo: fairms.NewZoo(),
		TrainWorkers: 1, TrainQueue: 4,
		MaxBodyBytes: bodyCap, MaxBatchDocs: batchCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	shardAddr, err := shard.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shard.Shutdown(ctx)
	})
	cluster, err := dmscluster.New(dmscluster.Config{
		Shards: []string{shardAddr}, BootstrapK: 4, Seed: 1, ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	routerAddr := startRouter(t, cluster, dmsapi.ServerConfig{MaxBodyBytes: bodyCap, MaxBatchDocs: batchCap})

	// Fit and fill the shard through the router, and register one model
	// every case below can name.
	corpus := braggCorpus(41, 48)
	rc, err := dmsapi.NewClient(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	for lo := 0; lo < 40; lo += batchCap {
		if resp, err := rc.IngestBatch("parity", corpus[lo:lo+batchCap]); err != nil || len(resp.Errors) > 0 {
			t.Fatalf("seeding: err=%v, doc errors=%v", err, resp.Errors)
		}
	}
	state := nn.Sequential(nn.NewLinear(rand.New(rand.NewSource(1)), 4, 2)).State()
	if err := rc.AddModel("seed", state, []float64{0.25, 0.25, 0.25, 0.25}, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := state.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	samples := dmsapi.FromCodecSlice(corpus[40:44])
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bigBatch := dmsapi.FromCodecSlice(corpus[:batchCap+1])
	// A syntactically valid body just over the cap: the cap, not the
	// content, must decide the answer.
	overCap := mustJSON(dmsapi.IngestBatchRequest{Dataset: strings.Repeat("x", bodyCap), Samples: samples})

	cases := []parityCase{
		{"ingest", "POST", dmsapi.PathIngest,
			fixed(mustJSON(dmsapi.IngestRequest{Dataset: "parity", Samples: samples})), 200, ""},
		{"ingest:batch", "POST", dmsapi.PathIngestBatch,
			fixed(mustJSON(dmsapi.IngestBatchRequest{Dataset: "parity", Samples: samples})), 200, ""},
		{"ingest:batch over MaxBatchDocs", "POST", dmsapi.PathIngestBatch,
			fixed(mustJSON(dmsapi.IngestBatchRequest{Dataset: "parity", Samples: bigBatch})), 413, dmsapi.CodeTooLarge},
		{"ingest:batch empty", "POST", dmsapi.PathIngestBatch,
			fixed(mustJSON(dmsapi.IngestBatchRequest{Dataset: "parity"})), 400, dmsapi.CodeBadRequest},
		{"body over the cap", "POST", dmsapi.PathIngestBatch, fixed(overCap), 413, dmsapi.CodeTooLarge},
		{"certainty", "POST", dmsapi.PathCertainty,
			fixed(mustJSON(dmsapi.CertaintyRequest{Samples: samples, Threshold: 0.5})), 200, ""},
		{"certainty bad dtype", "POST", dmsapi.PathCertainty,
			fixed(mustJSON(dmsapi.CertaintyRequest{Samples: []dmsapi.Sample{{Shape: []int{2}, Dtype: 99, Data: []byte{1, 2}}}})),
			400, dmsapi.CodeBadRequest},
		{"lookup", "POST", dmsapi.PathLookup, fixed(mustJSON(dmsapi.LookupRequest{Samples: samples})), 200, ""},
		{"nearest", "POST", dmsapi.PathNearest,
			fixed(mustJSON(dmsapi.NearestRequest{Samples: samples, Distinct: true})), 200, ""},
		{"pdf", "POST", dmsapi.PathPDF, fixed(mustJSON(dmsapi.PDFRequest{Samples: samples})), 200, ""},
		{"models add", "POST", dmsapi.PathModels, func(target string) []byte {
			return mustJSON(dmsapi.AddModelRequest{ID: "added-" + target, PDF: []float64{0.5, 0.5, 0, 0}, State: blob})
		}, 200, ""},
		{"models add duplicate", "POST", dmsapi.PathModels,
			fixed(mustJSON(dmsapi.AddModelRequest{ID: "seed", PDF: []float64{0.5, 0.5, 0, 0}, State: blob})),
			409, dmsapi.CodeConflict},
		{"models list", "GET", dmsapi.PathModels, nil, 200, ""},
		{"recommend", "POST", dmsapi.PathRecommend,
			fixed(mustJSON(dmsapi.RecommendRequest{PDF: []float64{0.25, 0.25, 0.25, 0.25}})), 200, ""},
		{"checkpoint", "GET", "/v1/models/seed/checkpoint", nil, 200, ""},
		{"checkpoint unknown", "GET", "/v1/models/nosuch/checkpoint", nil, 404, dmsapi.CodeNotFound},
		{"train submit", "POST", dmsapi.PathTrain, fixed(mustJSON(dmsapi.TrainRequest{
			Samples: samples, Model: "mlp", Hidden: 4, Epochs: 1, BatchSize: 4, Seed: 1,
		})), 202, ""},
		{"train list", "GET", dmsapi.PathTrain, nil, 200, ""},
		{"train get unknown", "GET", "/v1/train/nosuch", nil, 404, dmsapi.CodeNotFound},
		{"train cancel unknown", "POST", "/v1/train/nosuch:cancel", fixed([]byte("{}")), 404, dmsapi.CodeNotFound},
		{"train POST without :cancel", "POST", "/v1/train/x", fixed([]byte("{}")), 404, dmsapi.CodeNotFound},
		{"healthz", "GET", dmsapi.PathHealth, nil, 200, ""},
	}
	for _, path := range []string{
		dmsapi.PathIngest, dmsapi.PathIngestBatch, dmsapi.PathCertainty, dmsapi.PathLookup,
		dmsapi.PathNearest, dmsapi.PathPDF, dmsapi.PathModels, dmsapi.PathRecommend, dmsapi.PathTrain,
	} {
		cases = append(cases, parityCase{"malformed JSON " + path, "POST", path, fixed([]byte("{not json")), 400, dmsapi.CodeBadRequest})
	}

	targets := []struct{ name, addr string }{{"dmsd", shardAddr}, {"router", routerAddr}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tg := range targets {
				var body []byte
				if tc.body != nil {
					body = tc.body(tg.name)
				}
				status, code := send(t, tc.method, "http://"+tg.addr+tc.path, body)
				if status != tc.status || code != tc.code {
					t.Errorf("%s: %s %s answered %d %q, want %d %q",
						tg.name, tc.method, tc.path, status, code, tc.status, tc.code)
				}
			}
		})
	}
}

// parityCase is one request of the wire-contract table and the status
// and envelope code both tiers must answer it with.
type parityCase struct {
	name   string
	method string
	path   string
	// body builds the request body for one target (nil = no body);
	// per-target bodies keep write cases from colliding on the shared
	// shard.
	body   func(target string) []byte
	status int
	code   dmsapi.ErrorCode
}

// fixed returns a body builder that sends the same body to every target.
func fixed(b []byte) func(string) []byte {
	return func(string) []byte { return b }
}

// send issues one request and returns its status and, for a non-2xx
// answer, the envelope code ("" when the body carries no envelope).
func send(t *testing.T, method, url string, body []byte) (int, dmsapi.ErrorCode) {
	t.Helper()
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	if resp.StatusCode/100 == 2 {
		return resp.StatusCode, ""
	}
	var env dmsapi.ErrorResponse
	json.Unmarshal(raw, &env)
	return resp.StatusCode, env.Error.Code
}
