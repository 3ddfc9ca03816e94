// Package runner is the one entry point for a coreset run.
//
// The paper's simultaneous model is a single protocol: k machines each
// summarize their random share of the edges, and a coordinator composes
// the summaries. The multi-round MPC driver (internal/rounds) iterates that
// same step. Batch, stream and cluster are only deployment shapes of it, so
// Run is the one place that decides what a mode × rounds combination means:
// cmd/coreset, cmd/coresetload and the coresetd job manager each build a
// Spec and call it, and all of them get the same graph.RunReport back.
package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/stream"
	"repro/internal/task"
)

// Execution modes.
const (
	// ModeBatch materializes the input, partitions it with the sequential
	// RNG (partition.RandomK) and runs the task's batch pipeline.
	ModeBatch = "batch"
	// ModeStream hash-shards the source over k machine goroutines.
	ModeStream = "stream"
	// ModeCluster hash-shards the source over a worker fleet, one machine
	// per address.
	ModeCluster = "cluster"
)

// Spec describes one run.
type Spec struct {
	// Task is the registered task to run. Beta is its EDCS degree bound,
	// read only by tasks with UsesBeta (0 = edcs.DefaultBeta).
	Task *task.Descriptor
	Beta int

	// Mode is ModeBatch, ModeStream or ModeCluster.
	Mode string
	// K is the machine count; in cluster mode the fleet size sets it.
	K int
	// Rounds >= 1 runs the multi-round driver with that round cap; it is
	// only valid for the rounds-capable task. 0 runs a single round.
	Rounds int
	// Seed is the partitioning seed.
	Seed uint64
	// BatchSize is the number of edges per routed batch in stream and
	// cluster mode (0 = the runtime's default).
	BatchSize int
	// BatchWorkers caps the goroutines of batch mode (0 = GOMAXPROCS).
	BatchWorkers int

	// Source streams the input; batch mode materializes it first. Run
	// never closes it.
	Source stream.EdgeSource

	// Fleet lists the worker addresses of a cluster run, Spares the
	// standby addresses a replay may promote, MaxRetries the per-machine,
	// per-round replay budget (0 = fail fast) and RunID the trace run ID
	// shipped to every worker.
	Fleet      []string
	Spares     []string
	MaxRetries int
	RunID      string

	// Obs receives runtime events and Trace span events; nil disables
	// either.
	Obs   obs.Sink
	Trace *obs.Tracer
}

func (s Spec) validate() error {
	switch {
	case s.Task == nil:
		return errors.New("runner: no task")
	case s.Source == nil:
		return errors.New("runner: no source")
	case s.Mode != ModeBatch && s.Mode != ModeStream && s.Mode != ModeCluster:
		return fmt.Errorf("runner: unknown mode %q", s.Mode)
	case s.Mode != ModeCluster && s.K <= 0:
		return fmt.Errorf("runner: k must be > 0 (got %d)", s.K)
	}
	return task.ValidateParams(s.Task.Name, s.Beta, s.Rounds)
}

func (s Spec) clusterConfig() cluster.Config {
	return cluster.Config{
		Workers:    s.Fleet,
		Spares:     s.Spares,
		Seed:       s.Seed,
		BatchSize:  s.BatchSize,
		MaxRetries: s.MaxRetries,
		Obs:        s.Obs,
		RunID:      s.RunID,
	}
}

// Run executes the run s describes and returns the composed solution and
// its report. Stream and cluster runs stop at the next batch boundary once
// ctx is canceled, multi-round runs at the next round boundary; a batch
// round cannot be interrupted, but a batch run canceled meanwhile still
// returns ctx's error. Batch runs validate the materialized input and check
// the solution against it with the task's verifier.
func Run(ctx context.Context, s Spec) (task.Solution, *graph.RunReport, error) {
	if err := s.validate(); err != nil {
		return task.Solution{}, nil, err
	}
	var p task.Params
	if s.Task.UsesBeta {
		p.EDCS = edcs.ParamsForBeta(s.Beta)
	}
	var g *graph.Graph
	if s.Mode == ModeBatch {
		var err error
		if g, err = stream.Materialize(s.Source); err != nil {
			return task.Solution{}, nil, err
		}
		if err := g.Validate(); err != nil {
			return task.Solution{}, nil, fmt.Errorf("invalid input: %w", err)
		}
	}
	sol, rep, err := s.dispatch(ctx, g, p)
	if err != nil {
		return task.Solution{}, nil, err
	}
	if g != nil {
		if err := ctx.Err(); err != nil {
			return task.Solution{}, nil, err
		}
		if s.Task.Verify != nil {
			if err := s.Task.Verify(g.N, g.Edges, sol); err != nil {
				return task.Solution{}, nil, fmt.Errorf("internal error: %w", err)
			}
		}
	}
	rep.Beta = p.EDCS.Beta
	return sol, rep, nil
}

// dispatch runs the mode × rounds combination s names; g is the
// materialized input in batch mode.
func (s Spec) dispatch(ctx context.Context, g *graph.Graph, p task.Params) (task.Solution, *graph.RunReport, error) {
	d := s.Task
	if s.Rounds >= 1 {
		cfg := rounds.Config{K: s.K, Rounds: s.Rounds, Seed: s.Seed, Params: p.EDCS,
			BatchSize: s.BatchSize, Workers: s.BatchWorkers, Obs: s.Obs, Trace: s.Trace}
		var (
			m   *matching.Matching
			st  *rounds.Stats
			err error
		)
		switch s.Mode {
		case ModeBatch:
			m, st, err = rounds.Batch(ctx, g, cfg)
		case ModeStream:
			m, st, err = rounds.Stream(ctx, s.Source, cfg)
		default:
			m, st, err = rounds.Cluster(ctx, s.Source, s.clusterConfig(), cfg)
		}
		if err != nil {
			return task.Solution{}, nil, err
		}
		return task.Solution{Size: m.Size(), Matching: m}, st.Report(s.Mode, s.Seed, m.Size(), p.EDCS.Beta), nil
	}
	switch s.Mode {
	case ModeBatch:
		start := time.Now()
		sol, st := d.Batch(g, s.K, s.BatchWorkers, s.Seed, p)
		return sol, st.Report(d.Name, g.N, g.M(), s.Seed, sol.Size, time.Since(start)), nil
	case ModeStream:
		cfg := stream.Config{K: s.K, Seed: s.Seed, BatchSize: s.BatchSize, Trace: s.Trace}
		sol, st, err := stream.Solve(ctx, s.Source, cfg, d, p)
		if err != nil {
			return task.Solution{}, nil, err
		}
		return sol, st.Report(d.Name, s.Seed, sol.Size), nil
	default:
		sol, st, err := cluster.Solve(ctx, s.Source, s.clusterConfig(), d, p)
		if err != nil {
			return task.Solution{}, nil, err
		}
		return sol, st.Report(d.Name, s.Seed, sol.Size), nil
	}
}
