package main

import (
	"fmt"
	"runtime"
	"time"

	"microrec/internal/cartesian"
	"microrec/internal/core"
	"microrec/internal/model"
)

// counters are the engines' own cumulative layer counters, summed over
// replicas; a phase's figures are the difference across it.
type counters struct {
	cacheHits, cacheMisses int64
	hotReads, coldReads    int64
	promotions, demotions  int64
}

func readCounters(engines []*core.Engine) counters {
	var c counters
	for _, e := range engines {
		if hc, ok := e.HotCache(); ok {
			c.cacheHits += hc.Hits
			c.cacheMisses += hc.Misses
		}
		if ts, ok := e.Tier(); ok {
			c.hotReads += ts.HotReads
			c.coldReads += ts.ColdReads
			c.promotions += ts.Promotions
			c.demotions += ts.Demotions
		}
	}
	return c
}

func (c counters) sub(b counters) counters {
	return counters{
		c.cacheHits - b.cacheHits, c.cacheMisses - b.cacheMisses,
		c.hotReads - b.hotReads, c.coldReads - b.coldReads,
		c.promotions - b.promotions, c.demotions - b.demotions,
	}
}

// runTraced sets the system up once with every engine behind the timing
// decorator, runs the workload's high load point untraced and then traced
// (same arrivals, same pool order), and attributes the traced phase to layers.
func (o options) runTraced(spec *model.Spec, pool *queryPool, rep report) (result, report, error) {
	w := o.workload
	tr := newTracer()
	sys, d, err := w.setUp(spec, pool, o.workdir, tr)
	if err != nil {
		return result{}, rep, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	rep.SetupS = []float64{d.Seconds()}

	half := time.Duration(o.seconds) * time.Second / 2
	nproc := runtime.GOMAXPROCS(0)
	load := float64(nproc)
	measure := func(t *tracer) phase {
		if w.open() {
			return o.openPhase(sys, pool, w.highQPS, half, 101, t)
		}
		pool.cursor.Store(0)
		return closedLoop(sys.submit, pool, nproc, half, 0, t)
	}
	if w.open() {
		load = w.highQPS
	}
	warm := o.warmUp(sys, pool)
	settle()
	untraced := measure(nil)
	settle()
	before := readCounters(sys.engines)
	tr.start()
	traced := measure(tr)
	spans := tr.stop()
	delta := readCounters(sys.engines).sub(before)

	want, err := expectedCTRs(sys.engines[0], pool.qs)
	if err != nil {
		return result{}, rep, err
	}
	c := &checker{want: want}
	res := result{Metrics: map[string]metric{}}
	for _, m := range []struct {
		name string
		p    phase
	}{{"warm-up", warm}, {"untraced", untraced}, {"traced", traced}} {
		pr := c.check(m.name, load, m.p)
		rep.Phases = append(rep.Phases, pr)
		if m.name != "warm-up" {
			res.Attempted += pr.Sent
			res.Failed += pr.failed()
		}
	}
	res.Correct = c.mismatched == 0 && c.errored == 0

	reqs := make([]tracedReq, len(traced.recs))
	for i, r := range traced.recs {
		reqs[i] = tracedReq{key: r.key, start: r.s0, end: r.s1, ok: r.outcome == served}
	}
	l := attribute(spans, reqs)
	if l.matched == 0 {
		return result{}, rep, fmt.Errorf("traced phase: no served request matched a batch")
	}
	rep.Named["trace.matched"] = float64(l.matched)
	rep.Named["trace.unmatched"] = float64(l.unmatched)

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	replicas := float64(len(sys.engines))
	wallNS := float64(traced.wall.Nanoseconds())
	queries := float64(l.gatherItems)
	plan := sys.engines[0].Plan()

	put("serving.queue_wait_us.p50", percentile(l.queueWaitUS, 0.5), "us")
	put("serving.queue_wait_us.p99", percentile(l.queueWaitUS, 0.99), "us")
	put("serving.batch_size.mean", queries/float64(l.batches), "count")
	put("serving.validate_us_per_query", us(l.validateNS)/float64(l.validateN), "us")
	put("serving.deliver_us.p50", percentile(l.deliverUS, 0.5), "us")
	put("pipeline.dense_wait_us.p50", percentile(l.denseWaitUS, 0.5), "us")
	put("pipeline.tail_wait_us.p50", percentile(l.tailWaitUS, 0.5), "us")
	put("pipeline.overlap", float64(l.stageBusyNS)/float64(l.stageUnionNS), "ratio")
	put("core.gather_us_per_query", us(l.gatherNS)/queries, "us")
	put("core.dense_us_per_query", us(l.denseNS)/float64(l.denseItems), "us")
	put("core.tail_us_per_query", us(l.tailNS)/float64(l.tailItems), "us")
	put("core.gather_busy", float64(l.gatherNS)/(wallNS*replicas), "ratio")
	put("core.dense_busy", float64(l.denseNS)/(wallNS*replicas), "ratio")
	// Computed, not counted: MACs and bytes from the model's shape over
	// measured stage time.
	put("kernels.dense_gmacs_per_s", float64(hiddenMACs(spec))*float64(l.denseItems)/float64(l.denseNS), "GMAC/s")
	put("kernels.gather_gb_per_s", float64(gatherBytes(plan.Layout.Tables))*queries/float64(l.gatherNS), "GB/s")
	put("placement.lookups_per_query", float64(plan.Layout.AccessesPerInference()), "count")
	put("placement.logical_lookups_per_query", float64(spec.NumLookups()), "count")
	cacheLookups := float64(delta.cacheHits + delta.cacheMisses)
	put("hotcache.hit_rate", ratio(float64(delta.cacheHits), cacheLookups), "ratio")
	put("hotcache.lookups_per_query", cacheLookups/queries, "count")
	tierReads := float64(delta.hotReads + delta.coldReads)
	put("tieredstore.hot_read_share", ratio(float64(delta.hotReads), tierReads), "ratio")
	put("tieredstore.cold_reads_per_query", float64(delta.coldReads)/queries, "count")
	put("tieredstore.promotions", float64(delta.promotions), "count")
	put("tieredstore.demotions", float64(delta.demotions), "count")
	put("tieredstore.prefetch_us_per_query", us(l.prefetchNS)/queries, "us")
	maxShare := 0.0
	for _, n := range l.validatedPerReplica {
		maxShare = max(maxShare, float64(n)/float64(l.validateN))
	}
	put("router.replica_share_max", maxShare, "ratio")
	lags := traced.lagsMS()
	put("driver.lag_ms.p99", percentile(lags, 0.99), "ms")
	put("driver.lag_ms.max", percentile(lags, 1), "ms")
	put("trace.unattributed_share", mean(l.unattributed), "ratio")
	put("trace.overhead", servedP50(traced)/servedP50(untraced), "ratio")
	return res, rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servedP50 is the median latency of a phase's served requests.
func servedP50(p phase) float64 {
	var lat []float64
	for _, r := range p.recs {
		if r.outcome == served {
			lat = append(lat, float64(r.lat))
		}
	}
	return median(lat)
}

// hiddenMACs is the multiply-accumulates per query of the hidden FC tower,
// the work DenseFromPlane does; the output layer runs in the tail.
func hiddenMACs(spec *model.Spec) int64 {
	dims := spec.LayerDims()
	var macs int64
	for _, d := range dims[:len(dims)-1] {
		macs += int64(d[0]) * int64(d[1])
	}
	return macs
}

// gatherBytes is the embedding payload one query's gather reads: every
// physical table's vector, once per lookup.
func gatherBytes(tables []cartesian.PhysicalTable) int64 {
	var n int64
	for _, t := range tables {
		n += int64(t.VectorBytes()) * int64(t.Lookups())
	}
	return n
}
