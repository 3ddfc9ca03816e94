package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/task"
)

// perLayer are the metrics of a traced run, named by module. Each is the
// median over the run's traced jobs (dataset.ingest_s: the one set-up). A
// layer that is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"dataset.ingest_s", "s"},
	{"dataset.read_s", "s"},
	{"dataset.read_bytes", "bytes"},
	{"dataset.segments", "count"},
	{"partition.shard_s", "s"},
	{"partition.skew", "ratio"},
	{"stream.shard_s", "s"},
	{"stream.summaries_s", "s"},
	{"stream.overlap", "ratio"},
	{"task.add_s", "s"},
	{"task.finish_s", "s"},
	{"task.build_max_s", "s"},
	{"task.stored_edges", "edges"},
	{"task.coreset_edges", "edges"},
	{"task.encode_s", "s"},
	{"task.decode_s", "s"},
	{"task.summary_bytes", "bytes"},
	{"task.compose_s", "s"},
	{"task.compose_edges", "edges"},
	{"matching.max_s", "s"},
	{"matching.max_calls", "count"},
	{"matching.max_edges", "edges"},
	{"cluster.overhead_s", "s"},
	{"cluster.shard_bytes", "bytes"},
	{"cluster.retries", "count"},
	{"cluster.meas_over_est", "ratio"},
	{"cluster.worker_decode_s", "s"},
	{"cluster.worker_build_s", "s"},
	{"cluster.worker_encode_s", "s"},
	{"rounds.run", "count"},
	{"rounds.union_edges_r0", "edges"},
	{"rounds.union_edges_final", "edges"},
	{"rounds.round_s_r0", "s"},
	{"rounds.round_s_r1", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// runTraced sets the workload up once and then, for the given seconds,
// runs traced jobs: each makes the workload's end-to-end call, then repeats
// the job one layer call at a time with a span around each call. The spans
// go to tracePath as a Chrome trace.
func runTraced(ctx context.Context, w workload, seed uint64, seconds float64, work, tracePath string) (*result, error) {
	draws, err := w.draws(seed)
	if err != nil {
		return nil, err
	}
	res := &result{}
	res.note("%s", params(w, draws))
	rec := newRecorder()
	e, err := setup(w, draws, scratchDir(work, 0), rec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	chks := newCheckers(w, draws)

	samples := map[string][]float64{}
	start := time.Now()
	for rec.job == 0 || time.Since(start).Seconds() < seconds {
		rec.job++
		i := (rec.job - 1) % len(draws)
		v, err := tracedJob(ctx, e, i, chks[i], rec)
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("traced job %d: %w", rec.job, err))
			if res.failed > 3 {
				break
			}
			continue
		}
		for name, x := range v {
			samples[name] = append(samples[name], x)
		}
	}
	if res.failed > 0 {
		return res, nil // a run with a failed check reports no measurements
	}

	vals := map[string]float64{}
	for name, xs := range samples {
		vals[name] = median(xs)
	}
	layers := rec.selfTimes()
	for _, lt := range layers {
		if lt.Name == "dataset.Builder" {
			vals["dataset.ingest_s"] = lt.Total.Seconds()
		}
	}
	if err := rec.writeChromeTrace(tracePath, "perfbench "+w.Name); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	res.note("# traced jobs=%d trace=%s", rec.job, tracePath)
	share := func(names ...string) float64 {
		part := 0.0
		for _, name := range names {
			part += sum(samples[name])
		}
		return 100 * part / sum(samples["stage_s"])
	}
	res.note("# stage time (median per job) %.4f s; share over all jobs: shard %.1f%%, add %.1f%%, finish %.1f%%, encode+decode %.1f%%, later rounds %.1f%%, compose %.1f%%",
		vals["stage_s"], share("stream.shard_s"), share("task.add_s"), share("task.finish_s"),
		share("task.encode_s", "task.decode_s"), share("later_rounds_s"), share("task.compose_s"))
	res.note("# self time by span (all jobs and set-up): calls total_s self_s")
	for _, lt := range layers {
		res.note("#   %-24s %5d %10.4f %10.4f", lt.Name, lt.Calls, lt.Total.Seconds(), lt.Self.Seconds())
	}
	res.addAll(perLayer, vals)
	return res, nil
}

// tracedJob runs one traced job and returns its layer values by metric
// name, plus "stage_s" (the summed time of the calls that make up the
// job) and "later_rounds_s".
//
// The job first makes the workload's end-to-end call (and, on cluster
// workloads, the streaming runtime's call on the same input, which the
// cluster answer must equal). It then makes the calls stream.Solve is made
// of, one after another: stream.Shard, every machine's Builder.Add and
// Finish, the summary codec, and Descriptor.Compose. On the rounds workload
// this decomposes round 0; later rounds are read from rounds.Stats and
// compose runs on its final coresets. Last come calls that only measure a
// layer on its own: dataset reads, partition.HashAssign, stream.Summaries
// and matching.Maximum.
//
// trace.overhead_frac compares the summed stage time with the end-to-end
// call, so it holds both the spans' cost and the overlap the pipeline loses
// when its stages run one at a time.
func tracedJob(ctx context.Context, e *env, i int, chk *checker, rec *recorder) (map[string]float64, error) {
	w, d, src, seed := e.w, e.d, e.srcs[i], e.seeds[i]
	n := w.N
	v := map[string]float64{}
	endJob := rec.begin("job", -1)
	defer endJob()

	// The end-to-end call, with the runtime's GC counters around it.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := rec.begin(e2eName[w.Runtime], -1)
	out, err := e.job(ctx, i)
	e2e := end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	if w.cluster() {
		end = rec.begin(refName[w.Runtime], -1)
		ref, err := e.reference(ctx, i)
		refT := end()
		if err != nil {
			return nil, err
		}
		chk.ref = &ref
		v["cluster.overhead_s"] = (e2e - refT).Seconds()
		clusterLayers(v, out)
	}
	if err := chk.check(out); err != nil {
		return nil, err
	}

	// The job again, one layer call at a time.
	if err := src.Restart(); err != nil {
		return nil, err
	}
	cfg := stream.Config{K: w.K, Seed: seed} // round 0's sharding on the rounds runtime
	end = rec.begin("stream.Shard", -1)
	parts, _, err := stream.Shard(src, cfg)
	v["stream.shard_s"] = end().Seconds()
	if err != nil {
		return nil, err
	}
	sums := make([]task.Summary, len(parts))
	for m, part := range parts {
		end = rec.begin("Builder.Add", m)
		b := d.NewBuilder(w.K, n, e.p)
		for _, edge := range part {
			b.Add(edge)
		}
		add := end()
		end = rec.begin("Builder.Finish", m)
		sums[m] = b.Finish(n)
		sums[m].Edges = len(part)
		fin := end()
		v["task.add_s"] += add.Seconds()
		v["task.finish_s"] += fin.Seconds()
		v["task.build_max_s"] = max(v["task.build_max_s"], (add + fin).Seconds())
		v["task.stored_edges"] += float64(sums[m].Stored)
		v["task.coreset_edges"] += float64(d.CoresetLen(sums[m]))
	}
	decoded := make([]task.Summary, len(sums))
	for m, s := range sums {
		end = rec.begin("task.AppendSummary", m)
		payload := task.AppendSummary(nil, d, s)
		v["task.encode_s"] += end().Seconds()
		v["task.summary_bytes"] += float64(len(payload))
		end = rec.begin("task.DecodeSummary", m)
		decoded[m], err = task.DecodeSummary(d, payload)
		v["task.decode_s"] += end().Seconds()
		if err != nil {
			return nil, err
		}
	}
	coresets := make([]int, len(decoded))
	for m, s := range decoded {
		coresets[m] = d.CoresetLen(s)
	}
	if !slices.Equal(coresets, out.coresets) {
		return nil, fmt.Errorf("decomposed per-machine coreset sizes %v, end-to-end job %v", coresets, out.coresets)
	}

	// Compose: on round 0's summaries, or on rounds.Cluster's final
	// coresets, whose later rounds it ran out of sight.
	if rst := out.rst; rst != nil {
		decoded = make([]task.Summary, len(rst.Coresets))
		for i, cs := range rst.Coresets {
			decoded[i] = task.Summary{Coreset: cs}
		}
		for _, rs := range rst.Rounds[1:] {
			v["later_rounds_s"] += rs.Duration.Seconds()
		}
		v["rounds.run"] = float64(rst.RoundsRun)
		v["rounds.union_edges_r0"] = float64(rst.Rounds[0].UnionEdges)
		v["rounds.union_edges_final"] = float64(rst.CompositionEdges)
		v["rounds.round_s_r0"] = rst.Rounds[0].Duration.Seconds()
		if len(rst.Rounds) > 1 {
			v["rounds.round_s_r1"] = rst.Rounds[1].Duration.Seconds()
		}
	}
	for _, s := range decoded {
		v["task.compose_edges"] += float64(d.CoresetLen(s))
	}
	end = rec.begin("Descriptor.Compose", -1)
	sol := d.Compose(n, decoded)
	v["task.compose_s"] = end().Seconds()
	if sol.Size != out.sol.Size {
		return nil, fmt.Errorf("decomposed answer size %d, end-to-end job %d", sol.Size, out.sol.Size)
	}
	v["stage_s"] = v["stream.shard_s"] + v["task.add_s"] + v["task.finish_s"] + v["task.encode_s"] +
		v["task.decode_s"] + v["later_rounds_s"] + v["task.compose_s"]
	v["trace.overhead_frac"] = (v["stage_s"] - e2e.Seconds()) / e2e.Seconds()

	// Layers measured on their own.
	if e.ds != nil {
		ds := e.ds[i]
		end = rec.begin("dataset.ReadSegment", -1)
		var scratch []byte
		for s := 0; s < ds.Segments(); s++ {
			if _, scratch, err = ds.ReadSegment(s, scratch); err != nil {
				return nil, err
			}
			v["dataset.read_bytes"] += float64(ds.Manifest().Segments[s].Length)
		}
		v["dataset.read_s"] = end().Seconds()
		v["dataset.segments"] = float64(ds.Segments())
	}
	counts := make([]int, w.K)
	end = rec.begin("partition.HashAssign", -1)
	for _, edge := range chk.edges {
		counts[partition.HashAssign(edge, w.K, seed)]++
	}
	v["partition.shard_s"] = end().Seconds()
	v["partition.skew"] = float64(slices.Max(counts)) * float64(w.K) / float64(len(chk.edges))

	if err := src.Restart(); err != nil {
		return nil, err
	}
	end = rec.begin("stream.Summaries", -1)
	_, _, err = stream.Summaries(ctx, src, cfg, d, e.p)
	v["stream.summaries_s"] = end().Seconds()
	if err != nil {
		return nil, err
	}
	v["stream.overlap"] = (v["stream.shard_s"] + v["task.add_s"] + v["task.finish_s"]) / v["stream.summaries_s"]

	// The exact matcher: every matching machine's Finish runs it on its
	// part, and every matching-shaped compose runs it on the union.
	var calls [][]graph.Edge
	if w.Task == "matching" {
		calls = append(calls, parts...)
	}
	if w.Task != "vc" {
		union := make([][]graph.Edge, len(decoded))
		for i, s := range decoded {
			union[i] = s.Coreset
		}
		calls = append(calls, graph.UnionEdges(union...))
	}
	for _, es := range calls {
		end = rec.begin("matching.Maximum", -1)
		matching.Maximum(n, es)
		v["matching.max_s"] += end().Seconds()
		v["matching.max_calls"]++
		v["matching.max_edges"] += float64(len(es))
	}
	return v, nil
}

// e2eName and refName name the end-to-end call of each runtime and the
// streaming call a cluster answer is checked against.
var (
	e2eName = map[string]string{"stream": "stream.Solve", "cluster": "cluster.Solve", "rounds": "rounds.Cluster"}
	refName = map[string]string{"cluster": "stream.Solve", "rounds": "rounds.Stream"}
)

// clusterLayers reads the wire and worker numbers a cluster job reported.
func clusterLayers(v map[string]float64, out jobOut) {
	var machines []graph.MachineStats
	var shardBytes, retries int
	if out.cst != nil {
		machines, shardBytes, retries = out.cst.MachineStats, out.cst.ShardBytes, out.cst.Retries
	}
	if out.rst != nil {
		for _, rs := range out.rst.Rounds {
			machines = append(machines, rs.MachineStats...)
		}
		shardBytes, retries = out.rst.ShardBytes, out.rst.Retries
	}
	v["cluster.shard_bytes"] = float64(shardBytes)
	v["cluster.retries"] = float64(retries)
	v["cluster.meas_over_est"] = float64(out.commBytes) / float64(out.estBytes)
	for _, ms := range machines {
		v["cluster.worker_decode_s"] += ms.DecodeMS / 1e3
		v["cluster.worker_build_s"] += ms.BuildMS / 1e3
		v["cluster.worker_encode_s"] += ms.EncodeMS / 1e3
	}
}
