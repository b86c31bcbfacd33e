package main

import (
	"sort"

	"microrec/internal/core"
)

// tracedReq is the driver's side of one traced request: its key and when its
// Submit call started and returned, in tracer nanoseconds.
type tracedReq struct {
	key        qkey
	start, end int64
	ok         bool
}

// ledger is the per-layer attribution of one traced phase.
type ledger struct {
	// Per served request, in microseconds: Submit to the start of its
	// batch's gather; gather end to dense start and dense end to tail start
	// on the same plane; tail end to Submit's return.
	queueWaitUS, denseWaitUS, tailWaitUS, deliverUS []float64
	// unattributed is, per served request, the share of its Submit span
	// that no engine call of its own (validate, prefetch, gather, dense,
	// tail) covers.
	unattributed []float64
	// matched counts served requests whose batch chain was found; unmatched
	// the rest (a chain cut by the end of recording).
	matched, unmatched int

	batches                            int
	validateN                          int
	validateNS, prefetchNS             int64
	gatherNS, denseNS, tailNS          int64
	gatherItems, denseItems, tailItems int
	stageBusyNS, stageUnionNS          int64
	validatedPerReplica                map[int]int
}

// chain is one batch's trip through a plane: its gather, dense and tail
// spans (indices into the span log, -1 when missing).
type chain struct{ g, d, t int }

// attribute matches spans to requests and to each other. Stage spans of one
// plane are paired in time order, because a plane is not recycled before its
// tail returns; a request finds its batch by its key in the gather span.
func attribute(spans []callSpan, reqs []tracedReq) ledger {
	l := ledger{validatedPerReplica: map[int]int{}}
	byPlane := map[*core.BatchScratch][]int{}
	validateOf := map[qkey]int{}
	prefetchOf := map[qkey]int{}
	stagesByReplica := map[int][]interval{}
	for i, s := range spans {
		d := s.end - s.start
		switch s.kind {
		case spanValidate:
			l.validateN++
			l.validateNS += d
			l.validatedPerReplica[s.replica]++
			validateOf[s.keys[0]] = i
			continue
		case spanPrefetch:
			l.prefetchNS += d
			for _, k := range s.keys {
				prefetchOf[k] = i
			}
			continue
		case spanGather:
			l.batches++
			l.gatherNS += d
			l.gatherItems += s.items
		case spanDense:
			l.denseNS += d
			l.denseItems += s.items
		case spanTail:
			l.tailNS += d
			l.tailItems += s.items
		}
		l.stageBusyNS += d
		byPlane[s.plane] = append(byPlane[s.plane], i)
		stagesByReplica[s.replica] = append(stagesByReplica[s.replica], interval{s.start, s.end})
	}
	for _, ivs := range stagesByReplica {
		l.stageUnionNS += unionNS(ivs)
	}

	chainOf := map[qkey]chain{}
	for _, idx := range byPlane {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
		cur := chain{-1, -1, -1}
		flush := func() {
			if cur.g >= 0 {
				for _, k := range spans[cur.g].keys {
					chainOf[k] = cur
				}
			}
		}
		for _, i := range idx {
			switch spans[i].kind {
			case spanGather:
				flush()
				cur = chain{i, -1, -1}
			case spanDense:
				cur.d = i
			case spanTail:
				cur.t = i
			}
		}
		flush()
	}

	for _, r := range reqs {
		if !r.ok {
			continue
		}
		c, found := chainOf[r.key]
		if !found || c.d < 0 || c.t < 0 {
			l.unmatched++
			continue
		}
		l.matched++
		g, d, t := spans[c.g], spans[c.d], spans[c.t]
		l.queueWaitUS = append(l.queueWaitUS, us(g.start-r.start))
		l.denseWaitUS = append(l.denseWaitUS, us(d.start-g.end))
		l.tailWaitUS = append(l.tailWaitUS, us(t.start-d.end))
		l.deliverUS = append(l.deliverUS, us(r.end-t.end))
		own := []interval{{g.start, g.end}, {d.start, d.end}, {t.start, t.end}}
		if i, ok := validateOf[r.key]; ok {
			own = append(own, interval{spans[i].start, spans[i].end})
		}
		if i, ok := prefetchOf[r.key]; ok {
			own = append(own, interval{spans[i].start, spans[i].end})
		}
		if e2e := r.end - r.start; e2e > 0 {
			l.unattributed = append(l.unattributed, 1-float64(coveredNS(r.start, r.end, own))/float64(e2e))
		}
	}
	return l
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
