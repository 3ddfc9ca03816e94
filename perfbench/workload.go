package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/stream"
	"repro/internal/task"
)

// workload is one benchmark input family and the runtime path it drives.
// The program only ever sees the generated edges (in memory, or ingested
// into a dataset store at set-up); the seed never reaches it except as the
// hash sharder's seed.
type workload struct {
	Name    string
	Task    string  // task registry name
	Runtime string  // "stream" (stream.Solve), "cluster" (cluster.Solve) or "rounds" (rounds.Cluster)
	Gen     string  // "gnp" or "powerlaw" (the CLI's Chung–Lu draw: exponent 2.0, maxWeight n/16+1)
	N       int     // vertices
	Deg     float64 // gnp average degree
	K       int     // machines (round 0 on the rounds runtime)
	Rounds  int     // round cap, rounds runtime only
	Beta    int     // EDCS degree bound, edcs only
	Dataset bool    // stream the input from a dataset store ingested at set-up
	// Inputs is how many graphs a run draws; jobs take them in turn. The
	// exact matcher's time varies from one graph to the next (by about a
	// sixth on matching-gnp-stream), so a run that times one graph would
	// mostly measure its seed.
	Inputs int
}

// workloads are the benchmark's three input families, each chosen so that
// a different layer dominates (BENCHMARK.json gives the reason for each):
// the exact matcher, the data plane, and the multi-round cluster engine.
var workloads = []workload{
	{
		Name: "matching-gnp-stream",
		Task: "matching", Runtime: "stream", Gen: "gnp", N: 16384, Deg: 8, K: 8, Inputs: 16,
	},
	{
		// One input: the job's time hardly depends on the draw, and each
		// input costs a 1.6M-edge ingest per set-up.
		Name: "vc-gnp-dataset-cluster",
		Task: "vc", Runtime: "cluster", Gen: "gnp", N: 200000, Deg: 16, K: 4, Dataset: true, Inputs: 1,
	},
	{
		// Eight inputs: the coreset bytes vary by a few percent from one
		// powerlaw draw to the next.
		Name: "edcs-powerlaw-rounds-cluster",
		Task: "edcs", Runtime: "rounds", Gen: "powerlaw", N: 16384, K: 4, Rounds: 2, Beta: 8, Inputs: 8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) params() task.Params {
	if w.Beta > 0 {
		return task.Params{EDCS: edcs.ParamsForBeta(w.Beta)}
	}
	return task.Params{}
}

// cluster reports whether the workload's machines sit behind loopback
// sockets (cluster.Solve or rounds.Cluster).
func (w workload) cluster() bool { return w.Runtime != "stream" }

// draw is one input graph of a run.
type draw struct {
	seed  uint64 // the generator's and the hash sharder's seed
	edges []graph.Edge
}

// draws makes the run's inputs from its seed: input i comes from
// seed + i·φ·2^64, so input 0 is drawn from the seed itself.
func (w workload) draws(seed uint64) ([]draw, error) {
	out := make([]draw, w.Inputs)
	for i := range out {
		s := seed + uint64(i)*0x9e3779b97f4a7c15
		switch w.Gen {
		case "gnp":
			out[i] = draw{s, gen.Collect(gen.GNPIter(w.N, w.Deg/float64(w.N), rng.New(s)))}
		case "powerlaw":
			out[i] = draw{s, gen.Collect(gen.PowerlawIter(w.N, 2.0, w.N/16+1, rng.New(s)))}
		default:
			return nil, fmt.Errorf("workload %s: unknown generator %q", w.Name, w.Gen)
		}
	}
	return out, nil
}

func edgeCount(ds []draw) int {
	m := 0
	for _, d := range ds {
		m += len(d.edges)
	}
	return m
}

// oracle returns the baseline approx_ratio divides by: the input's maximum
// matching for matching-shaped tasks, and for vc a greedy maximal matching,
// whose size lower-bounds every cover (so cover/greedy bounds the true ratio
// from above).
func (w workload) oracle(edges []graph.Edge) int {
	if w.Task == "vc" {
		return matching.MaximalGreedy(w.N, edges).Size()
	}
	return matching.Maximum(w.N, edges).Size()
}

// approxRatio is oracle/size for matchings and size/oracle for covers, so
// that on both the ratio is >= 1 and lower is better.
func (w workload) approxRatio(oracle, size int) float64 {
	if w.Task == "vc" {
		return float64(size) / float64(oracle)
	}
	return float64(oracle) / float64(size)
}

// env is a set-up workload: one restartable source per input, plus the
// dataset stores and loopback fleet it owns.
type env struct {
	w     workload
	d     *task.Descriptor
	p     task.Params
	seeds []uint64
	srcs  []stream.Restartable
	ds    []*dataset.Dataset
	dir   string
	addrs []string
	stop  func()
}

// setup brings a workload to steady state: ingest and open one dataset per
// input (when the workload reads datasets) under dir, and start the
// loopback fleet (cluster runtimes). Every step is a span on rec.
func setup(w workload, draws []draw, dir string, rec *recorder) (_ *env, err error) {
	d, ok := task.Get(w.Task)
	if !ok {
		return nil, fmt.Errorf("workload %s: unknown task %q", w.Name, w.Task)
	}
	e := &env{w: w, d: d, p: w.params(), dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	for i, dr := range draws {
		e.seeds = append(e.seeds, dr.seed)
		if !w.Dataset {
			e.srcs = append(e.srcs, stream.NewSliceSource(w.N, dr.edges))
			continue
		}
		ds, err := ingest(w, dr.edges, filepath.Join(dir, fmt.Sprintf("input-%d", i)), rec)
		if err != nil {
			return nil, err
		}
		e.ds = append(e.ds, ds)
		e.srcs = append(e.srcs, stream.NewDatasetSource(ds))
	}
	if w.cluster() {
		end := rec.begin("cluster.ServeLoopback", -1)
		addrs, stop, err := cluster.ServeLoopback(w.K)
		if err != nil {
			return nil, err
		}
		end()
		e.addrs, e.stop = addrs, stop
	}
	return e, nil
}

// ingest writes edges as a dataset in dir and opens it.
func ingest(w workload, edges []graph.Edge, dir string, rec *recorder) (*dataset.Dataset, error) {
	end := rec.begin("dataset.Builder", -1)
	b, err := dataset.NewBuilder(dir, dataset.IngestOptions{})
	if err != nil {
		return nil, err
	}
	if err := b.Add(edges...); err != nil {
		b.Abort()
		return nil, err
	}
	if _, err := b.Finish(w.N, "perfbench "+w.Name, 0, 0); err != nil {
		return nil, err
	}
	end()
	end = rec.begin("dataset.Open", -1)
	defer end()
	return dataset.Open(dir)
}

// close stops the fleet (waiting for every worker goroutine to exit) and
// removes the datasets.
func (e *env) close() {
	if e.stop != nil {
		e.stop()
		e.stop = nil
	}
	for _, ds := range e.ds {
		ds.Close()
	}
	e.ds = nil
	os.RemoveAll(e.dir)
}

// jobOut is what one job produced and what it reported about its cost.
type jobOut struct {
	sol        task.Solution
	commBytes  int   // machine -> coordinator coreset bytes, summed over rounds
	maxMachine int   // largest single coreset message
	estBytes   int   // cluster runtimes: the simulated estimate of commBytes
	coresets   []int // per-machine coreset sizes (round 0 on the rounds runtime)
	cst        *cluster.Stats
	rst        *rounds.Stats
}

// job is one closed-loop request on input i: restart its source and run
// the workload's runtime on it.
func (e *env) job(ctx context.Context, i int) (jobOut, error) {
	src, seed, w := e.srcs[i], e.seeds[i], e.w
	if err := src.Restart(); err != nil {
		return jobOut{}, err
	}
	switch w.Runtime {
	case "stream":
		sol, st, err := stream.Solve(ctx, src, stream.Config{K: w.K, Seed: seed}, e.d, e.p)
		if err != nil {
			return jobOut{}, err
		}
		return jobOut{sol: sol, commBytes: st.TotalCommBytes, maxMachine: st.MaxMachineBytes, coresets: st.CoresetEdges}, nil
	case "cluster":
		sol, st, err := cluster.Solve(ctx, src, cluster.Config{Workers: e.addrs, Seed: seed}, e.d, e.p)
		if err != nil {
			return jobOut{}, err
		}
		return jobOut{sol: sol, commBytes: st.TotalCommBytes, maxMachine: st.MaxMachineBytes,
			estBytes: st.EstCommBytes, coresets: st.CoresetEdges, cst: st}, nil
	case "rounds":
		m, st, err := rounds.Cluster(ctx, src, cluster.Config{Workers: e.addrs}, e.roundsConfig(seed))
		if err != nil {
			return jobOut{}, err
		}
		return jobOut{sol: task.Solution{Size: m.Size(), Matching: m}, commBytes: st.TotalCommBytes,
			maxMachine: st.MaxMachineBytes, estBytes: st.EstCommBytes, coresets: st.Rounds[0].CoresetEdges, rst: st}, nil
	}
	return jobOut{}, fmt.Errorf("workload %s: unknown runtime %q", w.Name, w.Runtime)
}

func (e *env) roundsConfig(seed uint64) rounds.Config {
	return rounds.Config{K: e.w.K, Rounds: e.w.Rounds, Seed: seed, Params: e.p.EDCS}
}

// reference solves input i on the in-process streaming runtime — the
// answer a cluster job must reproduce exactly.
func (e *env) reference(ctx context.Context, i int) (task.Solution, error) {
	src, seed := e.srcs[i], e.seeds[i]
	if err := src.Restart(); err != nil {
		return task.Solution{}, err
	}
	if e.w.Runtime == "rounds" {
		m, _, err := rounds.Stream(ctx, src, e.roundsConfig(seed))
		if err != nil {
			return task.Solution{}, err
		}
		return task.Solution{Size: m.Size(), Matching: m}, nil
	}
	sol, _, err := stream.Solve(ctx, src, stream.Config{K: e.w.K, Seed: seed}, e.d, e.p)
	return sol, err
}

// checker holds what every job's answer on one input is checked against.
type checker struct {
	d     *task.Descriptor
	n     int
	edges []graph.Edge
	size  int            // the answer size every job on this input must repeat; 0 until the first job
	ref   *task.Solution // the streaming runtime's answer, for cluster jobs; nil otherwise
}

func newCheckers(w workload, draws []draw) []*checker {
	d := task.MustGet(w.Task)
	out := make([]*checker, len(draws))
	for i, dr := range draws {
		out[i] = &checker{d: d, n: w.N, edges: dr.edges}
	}
	return out
}

// check validates one job: the descriptor's verifier against the whole
// input, the answer size of earlier jobs on the input, equality with the
// streaming runtime's answer and measured/estimated coreset bytes within
// [1, 2].
func (c *checker) check(out jobOut) error {
	if c.d.Verify == nil {
		return fmt.Errorf("task %s has no verifier", c.d.Name)
	}
	if err := c.d.Verify(c.n, c.edges, out.sol); err != nil {
		return fmt.Errorf("invalid answer: %w", err)
	}
	if c.size == 0 {
		c.size = out.sol.Size
	} else if out.sol.Size != c.size {
		return fmt.Errorf("answer size %d, earlier jobs on this input gave %d", out.sol.Size, c.size)
	}
	if c.ref != nil && !sameAnswer(*c.ref, out.sol) {
		return errors.New("cluster answer differs from the stream runtime's answer on the same input")
	}
	if out.estBytes > 0 {
		if r := float64(out.commBytes) / float64(out.estBytes); r < 1 || r > 2 {
			return fmt.Errorf("measured/estimated coreset bytes %.4f outside [1, 2]", r)
		}
	}
	return nil
}

func sameAnswer(a, b task.Solution) bool {
	if a.Size != b.Size || !slices.Equal(a.Cover, b.Cover) {
		return false
	}
	if a.Matching == nil || b.Matching == nil {
		return a.Matching == b.Matching
	}
	return slices.Equal(a.Matching.Mate, b.Matching.Mate)
}
