package serve

import (
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/internal/traceerr"
)

// workloadEntry is one registered workload: the trace itself plus the
// ingestion facts the API reports about it.
type workloadEntry struct {
	W       *trace.Workload
	FP      trace.Fingerprint
	Summary trace.Summary
	Diag    traceerr.Diagnostics
	Format  string // "stream" or "json"
	Seq     int    // registration order, for stable listings
}

// registry is the multi-tenant workload store, keyed by content
// fingerprint. Uploading the same content twice is idempotent — the
// fingerprint is the identity, not the name — which also means the
// result cache is shared across tenants uploading identical traces.
type registry struct {
	mu   sync.RWMutex
	max  int
	byFP map[trace.Fingerprint]*workloadEntry
	seq  int
}

func newRegistry(max int) *registry {
	return &registry{max: max, byFP: make(map[trace.Fingerprint]*workloadEntry)}
}

// register stores e unless its fingerprint is already present; created
// reports whether this call inserted it.
func (r *registry) register(e *workloadEntry) (created bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byFP[e.FP]; ok {
		return false, nil
	}
	if len(r.byFP) >= r.max {
		return false, fmt.Errorf("%w (max %d)", ErrRegistryFull, r.max)
	}
	r.seq++
	e.Seq = r.seq
	r.byFP[e.FP] = e
	return true, nil
}

// get resolves a hex fingerprint to its entry.
func (r *registry) get(fpHex string) (*workloadEntry, error) {
	var fp trace.Fingerprint
	raw, err := hex.DecodeString(fpHex)
	if err != nil || len(raw) != len(fp) {
		return nil, fmt.Errorf("%w: %q is not a %d-hex-digit fingerprint", ErrUnknownWorkload, fpHex, 2*len(fp))
	}
	copy(fp[:], raw)
	r.mu.RLock()
	e, ok := r.byFP[fp]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownWorkload, fpHex)
	}
	return e, nil
}

// list returns all entries in registration order.
func (r *registry) list() []*workloadEntry {
	r.mu.RLock()
	out := make([]*workloadEntry, 0, len(r.byFP))
	for _, e := range r.byFP {
		out = append(out, e)
	}
	r.mu.RUnlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byFP)
}
