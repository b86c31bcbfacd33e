package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microrec"
	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/model"
	"microrec/internal/router"
	"microrec/internal/serving"
	"microrec/internal/workload"
)

// latencyLimit is the end-to-end limit on p99: the knee criterion, and the
// serving deadline of prod-open.
const latencyLimit = 100 * time.Millisecond

// l3Bytes is the last-level cache of the reference host (Intel Xeon, 2 vCPUs,
// one 105 MiB L3). Pool footprints are reported as multiples of it.
const l3Bytes = 105 << 20

// engineSeed fixes the model parameters; the workload seed drives only the
// generated queries and arrivals.
const engineSeed = 1

// workloadDef is one benchmark workload. The README says why each exists.
type workloadDef struct {
	name     string
	spec     func() (*model.Spec, error)
	dist     workload.Distribution
	poolSize int
	// tiered backs each engine with the tiered store (mmap'd cold file,
	// default quarter-size hot tier, background sweep, auto-attached hot-row
	// cache); routed serves through nproc replicas behind the affinity router.
	tiered, routed bool
	// warmPass sends the whole pool twice before anything is measured; see
	// warmUp.
	warmPass bool
	// throughputClients is, per replica, the closed-loop client count of an
	// open-loop workload's throughput phase. On prod-open it is 2·MaxBatch,
	// a full batch in service and one waiting: the capacity at full batches,
	// because the knee is bistable there and pass or fail near it is partly
	// chance. On rmc2-tiered it is 4: that many clients never queue long
	// enough for sweep stalls to expire requests, which at 128 and 256
	// clients they did to up to one request in ten.
	throughputClients int
	serving           serving.Options
	// lowQPS and highQPS are the open loop's two fixed rates, set from the
	// knee seen on the reference host and never recalibrated per run. Both
	// zero makes the workload a closed loop: low is one client, high nproc.
	lowQPS, highQPS float64
}

func (w *workloadDef) open() bool { return w.highQPS > 0 }

// openServing is the serve command's default serving shape (MaxBatch 64,
// 200µs window, pipeline depth 3) with shedding on and the latency limit as
// every request's deadline.
var openServing = serving.Options{Admission: serving.AdmissionOptions{Shed: true, SLA: latencyLimit}}

// tieredServing is openServing without the deadline. The tiered store's sweep
// stalls every replica now and then for up to about 100 ms; with the deadline
// a stall expired a few requests in some runs and none in others. Without
// it a stall shows in full as latency, in every run, and a run fails nothing
// unless the submit queue overflows.
var tieredServing = serving.Options{Admission: serving.AdmissionOptions{Shed: true}}

func rmc2() (*model.Spec, error) { return model.DLRMRMC2(12, 4) }

var workloads = []workloadDef{
	{
		name:     "prod-open",
		spec:     func() (*model.Spec, error) { return model.SmallProduction(), nil },
		dist:     workload.Zipf,
		poolSize: 8192,
		serving:  openServing,
		lowQPS:   500,
		highQPS:  1000,
		// 2·MaxBatch, with MaxBatch at its default of 64.
		throughputClients: 128,
	},
	{
		name:     "rmc2-closed",
		spec:     rmc2,
		dist:     workload.Uniform,
		poolSize: 131072,
		serving:  serving.Options{Batching: serving.BatchingOptions{MaxBatch: 1}},
	},
	{
		name:              "rmc2-tiered",
		spec:              rmc2,
		dist:              workload.Zipf,
		poolSize:          16384,
		tiered:            true,
		routed:            true,
		warmPass:          true,
		serving:           tieredServing,
		lowQPS:            500,
		highQPS:           1500,
		throughputClients: 4,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fullRows is the largest table's row count: materialising with it as the
// cap keeps every table at its spec size.
func fullRows(spec *model.Spec) int64 {
	var n int64
	for _, t := range spec.Tables {
		if t.Rows > n {
			n = t.Rows
		}
	}
	return n
}

// newPool draws the workload's query pool from the seed.
func newPool(spec *model.Spec, w *workloadDef, seed int64) (*queryPool, error) {
	g, err := workload.NewGenerator(spec, w.dist, seed)
	if err != nil {
		return nil, err
	}
	qs, err := g.Batch(w.poolSize)
	if err != nil {
		return nil, err
	}
	return &queryPool{qs: qs}, nil
}

// footprint is the pool's distinct embedding rows, in bytes of row payload
// and in bytes of the 64-byte cache lines those rows occupy.
type footprint struct {
	DistinctRows int64   `json:"distinct_rows"`
	RowBytes     int64   `json:"row_bytes"`
	LineBytes    int64   `json:"line_bytes"`
	L3Multiple   float64 `json:"line_bytes_over_l3"`
}

func poolFootprint(spec *model.Spec, qs []embedding.Query) footprint {
	var fp footprint
	for ti, t := range spec.Tables {
		rowBytes := int64(t.Dim) * model.FloatBytes
		rows := make([]uint64, (t.Rows+63)/64)
		lines := make([]uint64, (t.Rows*rowBytes/64+64)/64)
		for _, q := range qs {
			for _, r := range q[ti] {
				if rows[r/64]&(1<<(r%64)) == 0 {
					rows[r/64] |= 1 << (r % 64)
					fp.DistinctRows++
					fp.RowBytes += rowBytes
				}
				for l := r * rowBytes / 64; l <= ((r+1)*rowBytes-1)/64; l++ {
					if lines[l/64]&(1<<(l%64)) == 0 {
						lines[l/64] |= 1 << (l % 64)
						fp.LineBytes += 64
					}
				}
			}
		}
	}
	fp.L3Multiple = float64(fp.LineBytes) / l3Bytes
	return fp
}

// system is one set-up of the serving tier: the Submit seam plus the engines
// behind it, kept for the oracle and the layer counters.
type system struct {
	submit  submitFunc
	engines []*core.Engine
	close   func() error
}

var coldFiles atomic.Int64

// build constructs the engines and starts the server or router. With tr
// non-nil every engine is wrapped in the timing decorator.
func (w *workloadDef) build(spec *model.Spec, workdir string, tr *tracer) (*system, error) {
	newEngine := func() (*core.Engine, error) {
		opts := microrec.EngineOptions{Seed: engineSeed, MaxRowsPerTable: fullRows(spec)}
		if w.tiered {
			opts.ColdTier = true
			opts.ColdTierPath = filepath.Join(workdir, fmt.Sprintf("cold-%d-%d.bin", os.Getpid(), coldFiles.Add(1)))
		}
		return microrec.NewEngine(spec, opts)
	}
	wrap := func(e *core.Engine, replica int) serving.Engine {
		if tr == nil {
			return e
		}
		return &timedEngine{eng: e, tr: tr, replica: replica}
	}
	if !w.routed {
		e, err := newEngine()
		if err != nil {
			return nil, err
		}
		srv, err := serving.New(wrap(e, 1), w.serving)
		if err != nil {
			_ = e.Close()
			return nil, err
		}
		return &system{submit: srv.Submit, engines: []*core.Engine{e}, close: func() error {
			err := srv.Close()
			if cerr := e.Close(); err == nil {
				err = cerr
			}
			return err
		}}, nil
	}
	rt, err := router.New(router.Options{Policy: router.Affinity})
	if err != nil {
		return nil, err
	}
	sys := &system{submit: rt.Submit, close: rt.Close}
	for i := 1; i <= runtime.GOMAXPROCS(0); i++ {
		e, err := newEngine()
		if err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		if _, err := rt.Add(wrap(e, i), w.serving, e.Close); err != nil {
			_ = e.Close()
			_ = rt.Close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		sys.engines = append(sys.engines, e)
	}
	return sys, nil
}

// setUp builds the system and waits for its first accepted request; the
// returned duration is the set-up time.
func (w *workloadDef) setUp(spec *model.Spec, pool *queryPool, workdir string, tr *tracer) (*system, time.Duration, error) {
	t0 := time.Now()
	sys, err := w.build(spec, workdir, tr)
	if err != nil {
		return nil, 0, err
	}
	if _, err := sys.submit(context.Background(), pool.qs[0]); err != nil {
		_ = sys.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return sys, time.Since(t0), nil
}

// expectedCTRs computes every pooled query's CTR with the engine's own batched
// datapath (bit-identical to InferOne by construction), outside any timed
// phase, on GOMAXPROCS workers.
func expectedCTRs(e *core.Engine, qs []embedding.Query) ([]float32, error) {
	const chunk = 64
	out := make([]float32, len(qs))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var scratch core.BatchScratch
			for lo := wk * chunk; lo < len(qs); lo += workers * chunk {
				hi := min(lo+chunk, len(qs))
				if _, err := e.InferBatch(qs[lo:hi], out[lo:hi], &scratch); err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return out, nil
}

// phaseRNG gives each phase its own arrival stream, so a phase's inputs do
// not depend on how many probes the knee search ran before it.
func phaseRNG(seed, tag int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + tag)) }
