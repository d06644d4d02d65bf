// Package vecindex provides the in-memory vector index behind fairDS's
// nearest-label reuse (paper §II-A, "efficient lookup by embedding
// indexing"). Before this package, every nearest-neighbor query re-fetched
// all embeddings of the predicted cluster from the document store and
// scanned them linearly, so lookup latency grew with history size and each
// query crossed the wire when the store was remote. A vecindex mirrors the
// (document ID, cluster, embedding) triples in process, in flat
// cache-friendly float64 slabs, and answers the same query with a
// sublinear — or at worst in-memory linear — probe.
//
// Two implementations share the Index interface:
//
//   - Flat: exact nearest neighbor by chunked parallel scan of the
//     cluster's slab. The right default: fairDS has already narrowed the
//     search to one cluster, so a scan over that partition is both exact
//     and fast.
//   - IVF: inverted-file index in the FAISS sense. Large partitions are
//     sub-partitioned by a coarse k-means quantizer (reusing
//     cluster.KMeans), and queries probe only the NProbe closest sublists,
//     widening to the remaining lists only when every probed candidate is
//     excluded. Approximate for NProbe < number of sublists, exact
//     otherwise.
//
// Both support incremental Add on ingest, Remove, exclusion predicates for
// the Fig. 9 distinct-draw loop, and full Rebuild for the §II-C reindex
// pass. All methods are safe for concurrent use.
package vecindex

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Entry is one indexed vector: the backing document's ID, its coarse
// cluster (the fairDS k-means assignment), and its embedding.
type Entry struct {
	ID      string
	Cluster int
	Vec     []float64
}

// Result is a nearest-neighbor answer: the matched document ID and the
// squared Euclidean distance to the query.
type Result struct {
	ID    string
	Dist2 float64
}

// Stats snapshots an index's counters. Counters accumulate across the
// index's lifetime (Rebuild resets Size but not the counters).
type Stats struct {
	// Size is the number of vectors currently indexed.
	Size int `json:"size"`
	// Queries counts Nearest calls.
	Queries int64 `json:"queries"`
	// Probed counts vectors distance-compared across all queries; Probed /
	// Queries is the mean per-query scan width, the number an IVF keeps
	// sublinear.
	Probed int64 `json:"probed"`
	// ListsProbed counts inverted lists (Flat: cluster partitions) visited.
	ListsProbed int64 `json:"lists_probed"`
	// Rejected counts Add calls refused for a dimension mismatch.
	Rejected int64 `json:"rejected"`
}

// Index is an incrementally maintained per-cluster nearest-neighbor index
// over embedding vectors. Implementations are safe for concurrent use.
type Index interface {
	// Add indexes one vector under its cluster. All vectors in an index
	// must share one dimensionality (fixed by the first Add or Rebuild);
	// a mismatch returns ErrDimMismatch. Re-adding an existing ID replaces
	// its vector and cluster.
	Add(id string, cluster int, vec []float64) error
	// Remove drops the vector with the given ID, reporting whether it was
	// present.
	Remove(id string) bool
	// Nearest returns the closest indexed vector to q within the given
	// cluster, skipping IDs for which exclude returns true (nil excludes
	// nothing). ok is false when the cluster holds no eligible vectors.
	Nearest(cluster int, q []float64, exclude func(id string) bool) (res Result, ok bool)
	// Rebuild atomically replaces the entire index contents — the §II-C
	// reindex pass, where embeddings and cluster assignments are refreshed
	// together.
	Rebuild(entries []Entry) error
	// Len reports the number of indexed vectors.
	Len() int
	// Stats snapshots the index counters.
	Stats() Stats
}

// ErrDimMismatch is returned by Add when a vector's length disagrees with
// the index's established dimensionality — in fairDS terms, a corrupt
// stored embedding.
var ErrDimMismatch = errors.New("vecindex: vector dimension mismatch")

// dimError wraps ErrDimMismatch with the observed lengths.
func dimError(got, want int) error {
	return fmt.Errorf("%w: got %d, index holds %d-dimensional vectors", ErrDimMismatch, got, want)
}

// scanChunk is the smallest slab worth splitting across goroutines; below
// it, a single-threaded scan beats the fork/join overhead.
const scanChunk = 2048

// scanNearest finds the closest vector to q in a flat slab of n vectors of
// the given dim, skipping excluded IDs. It fans out across goroutines for
// large n. Ties break toward the lowest slot, so results are deterministic
// regardless of worker scheduling. Returns the winning slot (-1 if none)
// and its squared distance.
func scanNearest(vecs []float64, ids []string, dim int, q []float64, exclude func(string) bool) (int, float64) {
	n := len(ids)
	workers := runtime.GOMAXPROCS(0)
	if n < 2*scanChunk || workers <= 1 {
		return scanRange(vecs, ids, dim, q, exclude, 0, n)
	}
	if max := (n + scanChunk - 1) / scanChunk; workers > max {
		workers = max
	}
	type best struct {
		slot  int
		dist2 float64
	}
	results := make([]best, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			slot, d2 := scanRange(vecs, ids, dim, q, exclude, lo, hi)
			results[w] = best{slot: slot, dist2: d2}
		}(w, lo, hi)
	}
	wg.Wait()
	bestSlot, bestD2 := -1, 0.0
	for _, r := range results { // in worker order = slot order, so ties keep the lowest slot
		if r.slot >= 0 && (bestSlot < 0 || r.dist2 < bestD2) {
			bestSlot, bestD2 = r.slot, r.dist2
		}
	}
	return bestSlot, bestD2
}

// scanRange is the sequential inner loop of scanNearest over slots
// [lo, hi). Without an exclusion filter it measures two slots per pass:
// their distance sums are independent dependency chains the CPU overlaps,
// and each still adds its terms in dimension order, so every distance is
// bit-for-bit what a one-slot loop computes.
func scanRange(vecs []float64, ids []string, dim int, q []float64, exclude func(string) bool, lo, hi int) (int, float64) {
	bestSlot, bestD2 := -1, 0.0
	consider := func(i int, d2 float64) {
		if bestSlot < 0 || d2 < bestD2 {
			bestSlot, bestD2 = i, d2
		}
	}
	i := lo
	if exclude == nil {
		for ; i+1 < hi; i += 2 {
			a := vecs[i*dim : (i+1)*dim][:len(q)]
			b := vecs[(i+1)*dim : (i+2)*dim][:len(q)]
			da, db := 0.0, 0.0
			for j, x := range q {
				d, e := x-a[j], x-b[j]
				da += d * d
				db += e * e
			}
			consider(i, da)
			consider(i+1, db)
		}
	}
	for ; i < hi; i++ {
		if exclude != nil && exclude(ids[i]) {
			continue
		}
		v := vecs[i*dim : (i+1)*dim][:len(q)]
		d2 := 0.0
		for j, x := range q {
			d := x - v[j]
			d2 += d * d
		}
		consider(i, d2)
	}
	return bestSlot, bestD2
}
