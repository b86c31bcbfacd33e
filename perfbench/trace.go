package main

import (
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/serving"
	"microrec/internal/tieredstore"
)

// spanKind names the engine call a span times. Each is a public function of
// one layer: ValidateQuery is the serving layer's admission check,
// PrefetchBatch the tiered store's cold-row pass, and the three plane stages
// are core's gather, dense GEMM tower and output tail.
type spanKind uint8

const (
	spanValidate spanKind = iota
	spanPrefetch
	spanGather
	spanDense
	spanTail
)

// qkey identifies one submitted query by the address of its first table's
// index slice header. The traced driver hands every request its own copy of
// the outer slice, so the key is unique per request; the serving tier passes
// the same Query values through to the engine, so the key survives the trip.
type qkey *[]int64

func keyOf(q embedding.Query) qkey { return &q[0] }

// callSpan is one timed call into the engine.
type callSpan struct {
	kind    spanKind
	replica int
	start   int64 // tracer nanoseconds
	end     int64
	plane   *core.BatchScratch // gather, dense, tail: the plane the call worked on
	items   int                // queries the call covered
	keys    []qkey             // validate, prefetch, gather: the queries in the call
}

// tracer collects spans in memory while on; they are read out after the
// traced phase has drained.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []callSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to tracer nanoseconds.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) record(s callSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// start switches recording on with an empty span log.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.on.Store(true)
}

// stop switches recording off and returns the spans recorded since start.
// Callers let the phase drain first, so no call is still in flight.
func (t *tracer) stop() []callSpan {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func keysOf(queries []embedding.Query) []qkey {
	keys := make([]qkey, len(queries))
	for i, q := range queries {
		keys[i] = keyOf(q)
	}
	return keys
}

// timedEngine is a serving.Engine decorator that records one span per call
// into the engine's public stage functions while its tracer is on, and only
// forwards while it is off. Like router.HotEngine it always implements the
// optional Tiered and Prefetcher capabilities and forwards them, so the server
// engages the tier hooks exactly when the wrapped engine has a store attached.
type timedEngine struct {
	eng     serving.Engine
	tr      *tracer
	replica int
}

var (
	_ serving.Engine     = (*timedEngine)(nil)
	_ serving.Tiered     = (*timedEngine)(nil)
	_ serving.Prefetcher = (*timedEngine)(nil)
)

func (e *timedEngine) EnsurePlane(s *core.BatchScratch, b int) { e.eng.EnsurePlane(s, b) }

func (e *timedEngine) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) {
	if !e.tr.on.Load() {
		e.eng.GatherIntoPlane(queries, s)
		return
	}
	t0 := time.Now()
	e.eng.GatherIntoPlane(queries, s)
	t1 := time.Now()
	e.tr.record(callSpan{kind: spanGather, replica: e.replica, start: e.tr.at(t0), end: e.tr.at(t1),
		plane: s, items: len(queries), keys: keysOf(queries)})
}

func (e *timedEngine) DenseFromPlane(b int, s *core.BatchScratch) {
	if !e.tr.on.Load() {
		e.eng.DenseFromPlane(b, s)
		return
	}
	t0 := time.Now()
	e.eng.DenseFromPlane(b, s)
	t1 := time.Now()
	e.tr.record(callSpan{kind: spanDense, replica: e.replica, start: e.tr.at(t0), end: e.tr.at(t1), plane: s, items: b})
}

func (e *timedEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	if !e.tr.on.Load() {
		e.eng.TailFromPlane(b, s, dst)
		return
	}
	t0 := time.Now()
	e.eng.TailFromPlane(b, s, dst)
	t1 := time.Now()
	e.tr.record(callSpan{kind: spanTail, replica: e.replica, start: e.tr.at(t0), end: e.tr.at(t1), plane: s, items: b})
}

func (e *timedEngine) ValidateQuery(q embedding.Query) error {
	if !e.tr.on.Load() {
		return e.eng.ValidateQuery(q)
	}
	t0 := time.Now()
	err := e.eng.ValidateQuery(q)
	t1 := time.Now()
	e.tr.record(callSpan{kind: spanValidate, replica: e.replica, start: e.tr.at(t0), end: e.tr.at(t1),
		items: 1, keys: []qkey{keyOf(q)}})
	return err
}

// PrefetchBatch times and forwards the wrapped engine's Prefetcher
// capability; a no-op when the engine lacks it.
func (e *timedEngine) PrefetchBatch(queries []embedding.Query) {
	pf, ok := e.eng.(serving.Prefetcher)
	if !ok {
		return
	}
	if !e.tr.on.Load() {
		pf.PrefetchBatch(queries)
		return
	}
	t0 := time.Now()
	pf.PrefetchBatch(queries)
	t1 := time.Now()
	e.tr.record(callSpan{kind: spanPrefetch, replica: e.replica, start: e.tr.at(t0), end: e.tr.at(t1),
		items: len(queries), keys: keysOf(queries)})
}

// Tier forwards the wrapped engine's Tiered capability (ok=false when absent).
func (e *timedEngine) Tier() (tieredstore.Snapshot, bool) {
	if te, ok := e.eng.(serving.Tiered); ok {
		return te.Tier()
	}
	return tieredstore.Snapshot{}, false
}

// InferBatchValidated is the worker-pool drain's monolithic datapath. The
// benchmark serves through the pipelined drain, so it is forwarded untimed.
func (e *timedEngine) InferBatchValidated(queries []embedding.Query, dst []float32, scratch *core.BatchScratch) ([]float32, error) {
	return e.eng.InferBatchValidated(queries, dst, scratch)
}

func (e *timedEngine) TimingAt(items int, lookupNS float64) (core.TimingReport, error) {
	return e.eng.TimingAt(items, lookupNS)
}

func (e *timedEngine) LookupNS() float64                   { return e.eng.LookupNS() }
func (e *timedEngine) EffectiveLookupNS() float64          { return e.eng.EffectiveLookupNS() }
func (e *timedEngine) HotCacheHitRate() (float64, bool)    { return e.eng.HotCacheHitRate() }
func (e *timedEngine) HotCache() (core.HotCacheInfo, bool) { return e.eng.HotCache() }
