package search

import (
	"context"

	"github.com/climate-rca/rca/internal/artifact"
)

// verdictRecord is the durable verdict blob: a scenario's UF-ECT
// failure rate keyed by build fingerprint + run sizes.
type verdictRecord struct {
	Rate float64 `json:"rate"`
}

// incumbentRecord is the shared incumbent blob.
type incumbentRecord struct {
	Wave int      `json:"wave"`
	Rate float64  `json:"rate"`
	IDs  []string `json:"ids"`
}

// storedIncumbent reads the shared incumbent. A blob that does not
// decode, or names more than MaxPool ids, reads as none.
func (e *engine) storedIncumbent() (*node, bool) {
	var r incumbentRecord
	if !e.store.GetJSON(artifact.ClassIncumbent, e.fingerprint, &r) || len(r.IDs) > MaxPool {
		return nil, false
	}
	return &node{wave: r.Wave, rate: r.Rate, ids: r.IDs}, true
}

// publishIncumbent shares the current incumbent through the artifact
// store so concurrent workers running the same search prune against
// the global best. The blob is keyed by the search fingerprint and
// replaced read-modify-write under a store lock, only ever with a
// strictly better solution.
func (e *engine) publishIncumbent(ctx context.Context) {
	if e.store == nil || e.best == nil || e.best == e.published {
		return
	}
	unlock, err := e.store.Lock(ctx, "incumbent-"+e.fingerprint[:16])
	if err != nil {
		return // sharing is best-effort; the local search is unaffected
	}
	defer unlock()
	if cur, ok := e.storedIncumbent(); ok && !e.better(e.best, cur) {
		e.published = e.best
		return
	}
	rec := incumbentRecord{Wave: e.best.wave, Rate: e.best.rate, IDs: e.best.ids}
	if e.store.PutJSON(artifact.ClassIncumbent, e.fingerprint, rec) == nil {
		e.published = e.best
	}
}

// adoptIncumbent imports a peer's published incumbent at a wave
// boundary. Adoption is gated on the blob's discovery wave being
// strictly earlier than the wave about to start: a peer running the
// identical deterministic search publishes exactly what this run has
// already found by then, so for identical searches the gate makes
// adoption a no-op and the incumbent trace stays bit-identical with or
// without peers. Only a search that is genuinely ahead (a resumed or
// earlier-started run) can inject a better bound.
func (e *engine) adoptIncumbent(wave int) {
	if e.store == nil {
		return
	}
	peer, ok := e.storedIncumbent()
	if !ok || peer.wave >= wave || !e.better(peer, e.best) {
		return
	}
	e.best = peer
	e.incumbents = append(e.incumbents, IncumbentUpdate{
		Wave:   peer.wave,
		By:     "peer",
		Subset: Subset{IDs: peer.ids, Rate: peer.rate},
	})
	e.emit(Event{Kind: EventIncumbent, Wave: peer.wave, IDs: peer.ids, Rate: peer.rate, By: "peer"})
}
