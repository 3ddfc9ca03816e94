package runner

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/task"
)

func TestRunRejectsInvalidSpecs(t *testing.T) {
	src := stream.NewSliceSource(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	valid := Spec{Task: task.MustGet("matching"), Mode: ModeBatch, K: 2, Source: src}
	for _, tc := range []struct {
		edit func(*Spec)
		want string
	}{
		{func(s *Spec) { s.Task = nil }, "no task"},
		{func(s *Spec) { s.Source = nil }, "no source"},
		{func(s *Spec) { s.Mode = "bulk" }, `unknown mode "bulk"`},
		{func(s *Spec) { s.K = 0 }, "k must be > 0 (got 0)"},
		{func(s *Spec) { s.Mode, s.K = ModeStream, -1 }, "k must be > 0 (got -1)"},
		{func(s *Spec) { s.Rounds = 2 }, `rounds only applies to task "edcs"`},
		{func(s *Spec) { s.Beta = 8 }, `beta only applies to task "edcs"`},
	} {
		s := valid
		tc.edit(&s)
		if _, _, err := Run(context.Background(), s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
	if _, rep, err := Run(context.Background(), valid); err != nil || rep.SolutionSize != 2 || rep.Mode != ModeBatch {
		t.Fatalf("valid spec: rep %+v, err %v", rep, err)
	}
}

// A batch run whose context is canceled while its (uninterruptible) round
// runs still reports the cancellation.
func TestRunBatchHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := stream.NewSliceSource(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	for _, rounds := range []int{0, 2} {
		s := Spec{Task: task.MustGet("edcs"), Mode: ModeBatch, K: 2, Rounds: rounds, Source: src}
		if _, _, err := Run(ctx, s); !errors.Is(err, context.Canceled) {
			t.Errorf("rounds=%d: err = %v, want context.Canceled", rounds, err)
		}
	}
}
