package main

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"microrec"
	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/model"
	"microrec/internal/serving"
	"microrec/internal/workload"
)

// smallEngine builds a DLRM-RMC2 engine small enough for a unit test.
func smallEngine(t *testing.T, opts microrec.EngineOptions) (*core.Engine, *model.Spec) {
	t.Helper()
	spec, err := model.DLRMRMC2(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = engineSeed
	opts.MaxRowsPerTable = 4096
	e, err := microrec.NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e, spec
}

func testQueries(t *testing.T, spec *model.Spec, dist workload.Distribution, n int) []embedding.Query {
	t.Helper()
	g, err := workload.NewGenerator(spec, dist, 7)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Batch(n)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// serveAll submits every query concurrently and returns the CTRs in query
// order.
func serveAll(t *testing.T, eng serving.Engine, qs []embedding.Query) []float32 {
	t.Helper()
	srv, err := serving.New(eng, serving.Options{Batching: serving.BatchingOptions{MaxBatch: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([]float32, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := srv.Submit(context.Background(), append(embedding.Query(nil), qs[i]...))
			out[i], errs[i] = res.CTR, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return out
}

func TestTimedEngineKeepsPredictions(t *testing.T) {
	e, spec := smallEngine(t, microrec.EngineOptions{})
	qs := testQueries(t, spec, workload.Uniform, 200)
	bare := serveAll(t, e, qs)
	tr := newTracer()
	tr.start()
	timed := serveAll(t, &timedEngine{eng: e, tr: tr, replica: 1}, qs)
	spans := tr.stop()
	want, err := expectedCTRs(e, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if math.Float32bits(bare[i]) != math.Float32bits(timed[i]) || math.Float32bits(bare[i]) != math.Float32bits(want[i]) {
			t.Fatalf("query %d: bare %v, timed %v, oracle %v", i, bare[i], timed[i], want[i])
		}
		one, err := e.InferOne(qs[i])
		if err != nil || math.Float32bits(one) != math.Float32bits(want[i]) {
			t.Fatalf("query %d: InferOne %v (%v), oracle %v", i, one, err, want[i])
		}
	}
	kinds := map[spanKind]int{}
	for _, s := range spans {
		kinds[s.kind] += s.items
	}
	for _, k := range []spanKind{spanValidate, spanGather, spanDense, spanTail} {
		if kinds[k] != len(qs) {
			t.Errorf("span kind %d covered %d queries, want %d", k, kinds[k], len(qs))
		}
	}
	if kinds[spanPrefetch] != 0 {
		t.Errorf("all-DRAM engine recorded %d prefetched queries", kinds[spanPrefetch])
	}
}

func TestTimedTieredEngineStillPrefetches(t *testing.T) {
	e, spec := smallEngine(t, microrec.EngineOptions{ColdTier: true, ColdTierPath: filepath.Join(t.TempDir(), "cold.bin")})
	qs := testQueries(t, spec, workload.Zipf, 200)
	tr := newTracer()
	tr.start()
	got := serveAll(t, &timedEngine{eng: e, tr: tr, replica: 1}, qs)
	spans := tr.stop()
	snap, ok := e.Tier()
	if !ok {
		t.Fatal("tiered engine reports no store")
	}
	if snap.Prefetches == 0 {
		t.Fatal("decorated tiered engine made no prefetches")
	}
	prefetched := 0
	for _, s := range spans {
		if s.kind == spanPrefetch {
			prefetched += s.items
		}
	}
	if prefetched != len(qs) {
		t.Errorf("prefetch spans covered %d queries, want %d", prefetched, len(qs))
	}
	want, err := expectedCTRs(e, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("query %d: served %v, oracle %v", i, got[i], want[i])
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample has a percentile")
	}
}

func TestKneeSearch(t *testing.T) {
	ladder := geometricLadder(250, 32000, 1.05)
	if ladder[0] != 250 || ladder[len(ladder)-1] > 32000 || ladder[len(ladder)-1]*1.05 <= 32000 {
		t.Fatalf("ladder spans %v..%v", ladder[0], ladder[len(ladder)-1])
	}
	for _, knee := range []int{-1, 0, 1, 37, len(ladder) - 2, len(ladder) - 1} {
		probes := 0
		got := kneeSearch(ladder, func(rate float64) bool {
			probes++
			return knee >= 0 && rate <= ladder[knee]
		})
		if got != knee {
			t.Errorf("knee at rung %d: search found %d", knee, got)
		}
		if probes > bisectionProbes(len(ladder)) {
			t.Errorf("knee at rung %d: %d probes, budgeted %d", knee, probes, bisectionProbes(len(ladder)))
		}
	}
}

func TestMeetsLimit(t *testing.T) {
	limit := 100 * time.Millisecond
	// mk builds a phase of chunks of p99Chunk requests; chunk i has late[i]
	// requests over the limit and failed[i] shed ones.
	mk := func(late, failed []int, backlog int) phase {
		p := phase{backlog: backlog}
		for c := range late {
			for i := 0; i < p99Chunk; i++ {
				r := record{lat: time.Millisecond}
				switch {
				case i < late[c]:
					r.lat = 2 * limit
				case i < late[c]+failed[c]:
					r.outcome = shed
				}
				p.recs = append(p.recs, r)
			}
		}
		return p
	}
	for _, c := range []struct {
		name         string
		late, failed []int
		backlog      int
		want         bool
	}{
		{"clean", []int{0}, []int{0}, 0, true},
		{"1% late", []int{10}, []int{0}, 0, true},
		{"late and shed over 1%", []int{6}, []int{5}, 0, false},
		{"failed at the limit still misses", []int{0}, []int{11}, 0, false},
		{"one bad chunk of three", []int{0, 500, 0}, []int{0, 100, 0}, 0, true},
		{"two bad chunks of three", []int{0, 500, 20}, []int{0, 100, 0}, 0, false},
		{"backlog over rate x limit", []int{0}, []int{0}, 101, false},
		{"backlog at rate x limit", []int{0}, []int{0}, 100, true},
	} {
		if got := mk(c.late, c.failed, c.backlog).meetsLimit(1000, limit); got != c.want {
			t.Errorf("%s: meetsLimit = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestChunkedP99(t *testing.T) {
	var p phase
	// 3500 requests make chunks of 1000, 1000 and 1500. The first has no
	// slow request, so its p99 is 1ms; the others hold 20 requests at 50ms
	// each, enough to put their p99 at 50ms. The median chunk reads 50ms.
	for i := 0; i < 3500; i++ {
		lat := time.Millisecond
		if (i >= 1000 && i < 1020) || i >= 3480 {
			lat = 50 * time.Millisecond
		}
		p.recs = append(p.recs, record{lat: lat})
	}
	if got := p.chunkedP99MS(100 * time.Millisecond); got != 50 {
		t.Errorf("chunked p99 = %v, want 50", got)
	}
}

func TestCoverage(t *testing.T) {
	spans := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}}
	if got := unionNS(spans); got != 35 {
		t.Errorf("union = %d, want 35", got)
	}
	if got := coveredNS(12, 45, spans); got != 23 {
		t.Errorf("covered = %d, want 23", got)
	}
}

// TestAttributionArithmetic checks the ledger against hand-placed spans: two
// requests batched on one plane, one alone on another.
func TestAttributionArithmetic(t *testing.T) {
	var planeA, planeB core.BatchScratch
	q1, q2, q3 := embedding.Query{{1}}, embedding.Query{{2}}, embedding.Query{{3}}
	k1, k2, k3 := keyOf(q1), keyOf(q2), keyOf(q3)
	spans := []callSpan{
		{kind: spanValidate, replica: 1, start: 0, end: 2, items: 1, keys: []qkey{k1}},
		{kind: spanValidate, replica: 1, start: 1, end: 3, items: 1, keys: []qkey{k2}},
		{kind: spanValidate, replica: 2, start: 5, end: 6, items: 1, keys: []qkey{k3}},
		{kind: spanGather, replica: 1, start: 10, end: 20, plane: &planeA, items: 2, keys: []qkey{k1, k2}},
		{kind: spanDense, replica: 1, start: 25, end: 45, plane: &planeA, items: 2},
		{kind: spanTail, replica: 1, start: 45, end: 50, plane: &planeA, items: 2},
		{kind: spanGather, replica: 2, start: 10, end: 14, plane: &planeB, items: 1, keys: []qkey{k3}},
		{kind: spanDense, replica: 2, start: 14, end: 24, plane: &planeB, items: 1},
		{kind: spanTail, replica: 2, start: 30, end: 32, plane: &planeB, items: 1},
	}
	reqs := []tracedReq{
		{key: k1, start: 0, end: 60, ok: true},
		{key: k2, start: 1, end: 55, ok: true},
		{key: k3, start: 4, end: 36, ok: true},
	}
	l := attribute(spans, reqs)
	if l.matched != 3 || l.unmatched != 0 || l.batches != 2 {
		t.Fatalf("matched %d unmatched %d batches %d", l.matched, l.unmatched, l.batches)
	}
	eq := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("%s = %v, want %v", name, got, want)
				return
			}
		}
	}
	eq("queue wait", l.queueWaitUS, []float64{0.010, 0.009, 0.006})
	eq("dense wait", l.denseWaitUS, []float64{0.005, 0.005, 0})
	eq("tail wait", l.tailWaitUS, []float64{0, 0, 0.006})
	eq("deliver", l.deliverUS, []float64{0.010, 0.005, 0.004})
	// Request 1 spans 60ns, of which validate, gather, dense and tail cover
	// 2+10+20+5; request 2 spans 54ns with the same 37 covered; request 3
	// spans 32ns with 1+4+10+2 covered.
	eq("unattributed", l.unattributed, []float64{1 - 37.0/60, 1 - 37.0/54, 1 - 17.0/32})
	if l.gatherItems != 3 || l.gatherNS != 14 || l.denseNS != 30 || l.tailNS != 7 {
		t.Errorf("stage totals: gather %d/%dns dense %dns tail %dns", l.gatherItems, l.gatherNS, l.denseNS, l.tailNS)
	}
	// No two stages of one replica overlap here, so busy time equals the
	// union: 35ns on replica 1, 16ns on replica 2.
	if l.stageBusyNS != 51 || l.stageUnionNS != 51 {
		t.Errorf("stage busy %d, union %d", l.stageBusyNS, l.stageUnionNS)
	}
	if l.validatedPerReplica[1] != 2 || l.validatedPerReplica[2] != 1 {
		t.Errorf("per-replica validations %v", l.validatedPerReplica)
	}
}

// fakeEngine is a deterministic serving.Engine whose stages sleep fixed
// times, for checking the decorator and the attribution end to end without
// depending on a real model.
type fakeEngine struct{ gather, dense, tail time.Duration }

func (f *fakeEngine) ValidateQuery(q embedding.Query) error   { return nil }
func (f *fakeEngine) EnsurePlane(s *core.BatchScratch, b int) {}
func (f *fakeEngine) GatherIntoPlane(qs []embedding.Query, s *core.BatchScratch) {
	time.Sleep(f.gather)
}
func (f *fakeEngine) DenseFromPlane(b int, s *core.BatchScratch) { time.Sleep(f.dense) }
func (f *fakeEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	time.Sleep(f.tail)
	for i := range dst[:b] {
		dst[i] = 0.5
	}
}
func (f *fakeEngine) InferBatchValidated(qs []embedding.Query, dst []float32, s *core.BatchScratch) ([]float32, error) {
	return dst, nil
}
func (f *fakeEngine) TimingAt(items int, lookupNS float64) (core.TimingReport, error) {
	return core.TimingReport{Items: items}, nil
}
func (f *fakeEngine) LookupNS() float64                   { return 0 }
func (f *fakeEngine) EffectiveLookupNS() float64          { return 0 }
func (f *fakeEngine) HotCacheHitRate() (float64, bool)    { return 0, false }
func (f *fakeEngine) HotCache() (core.HotCacheInfo, bool) { return core.HotCacheInfo{}, false }

func TestAttributionAgainstFakeEngine(t *testing.T) {
	fake := &fakeEngine{gather: 2 * time.Millisecond, dense: 3 * time.Millisecond, tail: time.Millisecond}
	tr := newTracer()
	srv, err := serving.New(&timedEngine{eng: fake, tr: tr, replica: 1}, serving.Options{Batching: serving.BatchingOptions{MaxBatch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := &queryPool{qs: []embedding.Query{{{1}}, {{2}}, {{3}}}}
	tr.start()
	p := closedLoop(srv.Submit, pool, 2, 300*time.Millisecond, 0, tr)
	spans := tr.stop()
	reqs := make([]tracedReq, len(p.recs))
	for i, r := range p.recs {
		if r.outcome != served {
			t.Fatalf("request %d: outcome %d", i, r.outcome)
		}
		reqs[i] = tracedReq{key: r.key, start: r.s0, end: r.s1, ok: true}
	}
	l := attribute(spans, reqs)
	if l.matched != len(reqs) || l.unmatched != 0 {
		t.Fatalf("matched %d of %d requests", l.matched, len(reqs))
	}
	if got := us(l.gatherNS) / float64(l.gatherItems); got < 2000 {
		t.Errorf("gather %vus per query, slept 2000", got)
	}
	if got := us(l.denseNS) / float64(l.denseItems); got < 3000 {
		t.Errorf("dense %vus per query, slept 3000", got)
	}
	// Two clients keep two planes in flight, so the stages overlap.
	if overlap := float64(l.stageBusyNS) / float64(l.stageUnionNS); overlap <= 1 {
		t.Errorf("overlap %v with two clients", overlap)
	}
	for i, u := range l.unattributed {
		if u < 0 || u > 1 {
			t.Fatalf("request %d: unattributed share %v", i, u)
		}
		if l.queueWaitUS[i] < 0 || l.denseWaitUS[i] < 0 || l.tailWaitUS[i] < 0 || l.deliverUS[i] < 0 {
			t.Fatalf("request %d: negative wait", i)
		}
	}
	// The stage sleeps dominate each request, so most of it is attributed.
	if u := mean(l.unattributed); u > 0.5 {
		t.Errorf("mean unattributed share %v", u)
	}
}
