package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// setups is how many times an untraced run sets the workload up; setup_s
// is their median.
const setups = 5

// runEndToEnd measures the workload with tracing off: set it up several
// times (each set-up ends with a first, cold job), then run jobs back to
// back, taking the inputs in turn, for the given seconds and at least once
// per input, checking every answer.
func runEndToEnd(ctx context.Context, w workload, seed uint64, seconds float64, work string) (*result, error) {
	draws, err := w.draws(seed)
	if err != nil {
		return nil, err
	}
	oracle := 0
	for _, dr := range draws {
		oracle += w.oracle(dr.edges)
	}
	chks := newCheckers(w, draws)
	res := &result{}
	res.note("%s", params(w, draws))

	var (
		e      *env
		setupS []float64
		cold   = map[int]jobOut{} // set-up index -> its cold job, when it ran
	)
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		// Each set-up starts from a heap handed back to the OS, as the
		// first one does.
		debug.FreeOSMemory()
		t0 := time.Now()
		if e, err = setup(w, draws, scratchDir(work, i), nil); err != nil {
			return nil, err
		}
		out, err := e.job(ctx, i%len(draws))
		setupS = append(setupS, time.Since(t0).Seconds())
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("cold job: %w", err))
			continue
		}
		cold[i] = out
	}
	defer e.close()

	if w.cluster() {
		for i, c := range chks {
			ref, err := e.reference(ctx, i)
			if err != nil {
				return nil, fmt.Errorf("stream reference: %w", err)
			}
			c.ref = &ref
		}
	}
	for i, out := range cold {
		if err := chks[i%len(draws)].check(out); err != nil {
			res.fail(fmt.Errorf("cold job: %w", err))
		}
	}

	var times, allocs []float64
	// Every job on an input sends the same coreset bytes, so the byte
	// metrics average over the inputs, not over however many jobs each got.
	comm := make([]float64, len(draws))
	maxMachine := make([]float64, len(draws))
	start := time.Now()
	for j := 0; j < len(draws) || time.Since(start).Seconds() < seconds; j++ {
		i := j % len(draws)
		// Collect the previous job's garbage outside the timed region, so
		// no job pays for another's.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := e.job(ctx, i)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		res.attempted++
		if err == nil {
			err = chks[i].check(out)
		}
		if err != nil {
			res.fail(fmt.Errorf("input %d: %w", i, err))
			if res.failed > setups+5 {
				break // a broken build fails every job; stop early
			}
			continue
		}
		times = append(times, dt.Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
		comm[i], maxMachine[i] = float64(out.commBytes), float64(out.maxMachine)
	}
	if res.failed > 0 {
		return res, nil // a run with a failed check reports no measurements
	}

	size := 0
	for _, c := range chks {
		size += c.size
	}
	p50 := median(times)
	res.note("# jobs=%d run_s p25=%.4f p50=%.4f p75=%.4f max=%.4f (cold set-up jobs excluded)",
		len(times), quantile(times, 0.25), p50, quantile(times, 0.75), quantile(times, 1))
	res.note("# answer size=%d oracle=%d over %d inputs; setup_s runs=%.4f", size, oracle, len(draws), setupS)
	res.addAll(endToEnd, map[string]float64{
		"run_s_p50":         p50,
		"edges_per_s":       float64(edgeCount(draws)) / float64(len(draws)) / p50,
		"setup_s":           median(setupS),
		"comm_bytes":        mean(comm),
		"max_machine_bytes": mean(maxMachine),
		"approx_ratio":      w.approxRatio(oracle, size),
		"alloc_bytes":       median(allocs),
		"peak_rss_bytes":    peakRSS(),
	})
	return res, nil
}
