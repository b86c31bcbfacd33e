package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/embedding"
	"microrec/internal/serving"
)

// submitFunc is the serving seam both drivers push requests through:
// serving.Server.Submit or router.Router.Submit.
type submitFunc func(ctx context.Context, q embedding.Query) (serving.Result, error)

type outcome uint8

const (
	served outcome = iota
	shed
	expired
	errored
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return served
	case errors.Is(err, serving.ErrOverloaded):
		return shed
	case errors.Is(err, serving.ErrExpired):
		return expired
	default:
		return errored
	}
}

// record is one request's outcome.
type record struct {
	poolIdx int
	outcome outcome
	ctr     float32
	// lat runs from the request's due time (open loop) or its send
	// (closed loop) to Submit's return; lag is how late the open-loop
	// generator started the request.
	lat, lag time.Duration
	// at is when the request was due (open loop) or sent (closed loop),
	// from the start of its phase.
	at     time.Duration
	key    qkey  // traced runs only
	s0, s1 int64 // traced runs only: Submit call and return, tracer ns
}

// phase is one measured stretch of traffic.
type phase struct {
	recs []record // in order of at
	wall time.Duration
	// backlog is the open loop's count of requests still in flight when
	// the last one was sent.
	backlog int
	// steal is the share of the host's CPU time stolen by other guests
	// while the phase ran.
	steal float64
}

// queryPool is the workload's fixed, seeded set of queries, handed out in
// order and cycled.
type queryPool struct {
	qs     []embedding.Query
	cursor atomic.Int64
}

func (p *queryPool) next() int { return int((p.cursor.Add(1) - 1) % int64(len(p.qs))) }

// issue submits pool query idx and fills rec. tr, when non-nil, gives the
// request its own outer slice (so its key is unique) and stamps the span.
func issue(submit submitFunc, pool *queryPool, idx int, tr *tracer, rec *record) {
	q := pool.qs[idx]
	rec.poolIdx = idx
	if tr != nil {
		q = append(embedding.Query(nil), q...)
		rec.key = keyOf(q)
		rec.s0 = tr.at(time.Now())
	}
	res, err := submit(context.Background(), q)
	if tr != nil {
		rec.s1 = tr.at(time.Now())
	}
	rec.outcome = classify(err)
	rec.ctr = res.CTR
}

// openLoop offers n requests as a Poisson process of the given rate. Requests
// are paced by absolute due time: after each wake-up every overdue request is
// fired at once, and each one's latency is timed from its due time, so a late
// generator or a stall counts against the requests it delays.
func openLoop(submit submitFunc, pool *queryPool, rate float64, n int, rng *rand.Rand, tr *tracer) phase {
	due := make([]time.Duration, n)
	at := 0.0
	for i := range due {
		at += rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
	}
	recs := make([]record, n)
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	st := readCPUTicks()
	t0 := time.Now()
	for i := 0; i < n; {
		for ; i < n && due[i] <= time.Since(t0); i++ {
			inflight.Add(1)
			wg.Add(1)
			recs[i].at = due[i]
			go func(rec *record, dueAt time.Time, idx int) {
				defer wg.Done()
				rec.lag = time.Since(dueAt)
				issue(submit, pool, idx, tr, rec)
				rec.lat = time.Since(dueAt)
				inflight.Add(-1)
			}(&recs[i], t0.Add(due[i]), pool.next())
		}
		if i < n {
			time.Sleep(due[i] - time.Since(t0))
		}
	}
	backlog := int(inflight.Load())
	wg.Wait()
	return phase{recs: recs, wall: time.Since(t0), backlog: backlog, steal: st.stealSince()}
}

// closedLoop runs clients that each send their next request when the previous
// one returns, for dur or until n requests have been sent (n = 0: no limit).
func closedLoop(submit submitFunc, pool *queryPool, clients int, dur time.Duration, n int, tr *tracer) phase {
	per := make([][]record, clients)
	var (
		wg   sync.WaitGroup
		sent atomic.Int64
	)
	st := readCPUTicks()
	t0 := time.Now()
	stop := t0.Add(dur)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) && (n == 0 || sent.Add(1) <= int64(n)) {
				var rec record
				began := time.Now()
				issue(submit, pool, pool.next(), tr, &rec)
				rec.lat = time.Since(began)
				rec.at = began.Sub(t0)
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var recs []record
	for _, r := range per {
		recs = append(recs, r...)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].at < recs[b].at })
	return phase{recs: recs, wall: wall, steal: st.stealSince()}
}

// latenciesMS returns every request's latency in milliseconds; a request that
// failed counts as at least the latency limit, since it missed it.
func (p phase) latenciesMS(limit time.Duration) []float64 {
	out := make([]float64, len(p.recs))
	for i, r := range p.recs {
		lat := r.lat
		if r.outcome != served && lat < limit {
			lat = limit
		}
		out[i] = float64(lat) / float64(time.Millisecond)
	}
	return out
}

// p99Chunk is the request count of one chunk: the fewest samples that leave
// ten beyond a p99.
const p99Chunk = 1000

// chunks calls fn on consecutive runs of p99Chunk requests, in order of their
// due (or send) time; a trailing partial chunk joins the one before it.
func (p phase) chunks(fn func(recs []record)) {
	for lo := 0; lo < len(p.recs); lo += p99Chunk {
		hi := lo + p99Chunk
		if len(p.recs)-hi < p99Chunk {
			hi = len(p.recs)
		}
		fn(p.recs[lo:hi])
		if hi == len(p.recs) {
			return
		}
	}
}

// chunkedP99MS is the median over chunks of each chunk's p99 latency in ms,
// failures counted as in latenciesMS. One cluster of slow requests then moves
// one chunk, not the phase's tail.
func (p phase) chunkedP99MS(limit time.Duration) float64 {
	var p99s []float64
	p.chunks(func(recs []record) {
		p99s = append(p99s, percentile(phase{recs: recs}.latenciesMS(limit), 0.99))
	})
	return median(p99s)
}

// join appends q's requests to p's, as one phase measured in two stretches.
func (p phase) join(q phase) phase {
	return phase{recs: append(p.recs, q.recs...), wall: p.wall + q.wall, backlog: max(p.backlog, q.backlog)}
}

// cpuTicks is the host's aggregate CPU time from /proc/stat, in ticks.
type cpuTicks struct{ steal, total uint64 }

// readCPUTicks reads the first line of /proc/stat: user, nice, system, idle,
// iowait, irq, softirq and steal, the eighth. Zero where it cannot be read.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of CPU time stolen between t and now; 0 when
// /proc/stat is unreadable or no tick passed.
func (t cpuTicks) stealSince() float64 {
	now := readCPUTicks()
	if now.total <= t.total {
		return 0
	}
	return float64(now.steal-t.steal) / float64(now.total-t.total)
}

func (p phase) lagsMS() []float64 {
	out := make([]float64, len(p.recs))
	for i, r := range p.recs {
		out[i] = float64(r.lag) / float64(time.Millisecond)
	}
	return out
}

func (p phase) count(o outcome) int {
	n := 0
	for _, r := range p.recs {
		if r.outcome == o {
			n++
		}
	}
	return n
}

// meetsLimit is the knee criterion for one open-loop level, judged like the
// reported p99, chunk by chunk: in the median chunk at most 1% of requests
// missed the limit, a failed request counting as a miss (so the chunk's p99
// is within the limit and its losses within a 1% tolerance), and no more
// requests were left in flight at the end of sending than the rate completes
// within the limit.
func (p phase) meetsLimit(rate float64, limit time.Duration) bool {
	var shares []float64
	p.chunks(func(recs []record) {
		missed := 0
		for _, r := range recs {
			if r.outcome != served || r.lat > limit {
				missed++
			}
		}
		shares = append(shares, float64(missed)/float64(len(recs)))
	})
	if median(shares) > 0.01 {
		return false
	}
	return float64(p.backlog) <= math.Max(1, rate*limit.Seconds())
}
