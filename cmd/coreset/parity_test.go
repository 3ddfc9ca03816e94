package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/task"
)

// TestReportParityAcrossSurfaces: for every registered task in every mode,
// plus a multi-round EDCS run, the CLI's -json report, runner.Run's report
// and the coresetd job's result describe the same run identically once the
// wall-clock fields are zeroed.
func TestReportParityAcrossSurfaces(t *testing.T) {
	const k, seed = 3, 5
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)

	reg := service.NewRegistry(0)
	spec := &service.GenSpec{Name: "gnp", N: 400, Deg: 12, Seed: seed}
	if _, err := reg.AddSpec("g", spec); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.NewCache(64), 1, 64, 0, service.ClusterConfig{Workers: addrs}, nil)
	t.Cleanup(func() { _ = mgr.Shutdown(context.Background()) })

	type shape struct {
		task         string
		mode         string
		beta, rounds int
	}
	var shapes []shape
	for _, mode := range []string{"batch", "stream", "cluster"} {
		for _, name := range task.Names() {
			shapes = append(shapes, shape{name, mode, 0, 0})
		}
		// A small degree bound makes the union shrink, so round 1 runs.
		shapes = append(shapes, shape{"edcs", mode, 4, 2})
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%s-%s-b%d-r%d", sh.task, sh.mode, sh.beta, sh.rounds), func(t *testing.T) {
			args := []string{"-json", "-task", sh.task, "-gen", spec.Name, "-n", fmt.Sprint(spec.N),
				"-deg", fmt.Sprint(spec.Deg), "-seed", fmt.Sprint(seed), "-k", fmt.Sprint(k),
				"-beta", fmt.Sprint(sh.beta), "-rounds", fmt.Sprint(sh.rounds)}
			switch sh.mode {
			case "stream":
				args = append(args, "-stream")
			case "cluster":
				args = append(args, "-cluster", strings.Join(addrs, ","))
			}
			out, errOut, code := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("cli exit %d, stderr: %s", code, errOut)
			}
			var cli graph.RunReport
			if err := json.Unmarshal([]byte(out), &cli); err != nil {
				t.Fatal(err)
			}
			zeroReportClock(&cli)

			src, err := spec.Source()
			if err != nil {
				t.Fatal(err)
			}
			rs := runner.Spec{Task: task.MustGet(sh.task), Beta: sh.beta, Mode: sh.mode, K: k, Rounds: sh.rounds, Seed: seed, Source: src}
			if sh.mode == "cluster" {
				rs.Fleet, rs.MaxRetries, rs.RunID = addrs, cluster.DefaultMaxRetries, obs.RunIDFromSeed(seed)
			}
			_, rep, err := runner.Run(context.Background(), rs)
			if err != nil {
				t.Fatal(err)
			}
			if sh.rounds > 1 && rep.RoundsRun < 2 {
				t.Fatalf("multi-round run stopped after %d round(s)", rep.RoundsRun)
			}
			if lib := jsonCopy(t, rep); !reflect.DeepEqual(cli, lib) {
				t.Fatalf("cli and runner.Run reports differ\ncli: %+v\nrun: %+v", cli, lib)
			}

			j, err := mgr.Submit(service.CreateJobRequest{Graph: "g", Task: sh.task, K: k, Seed: seed, Mode: sh.mode, Beta: sh.beta, Rounds: sh.rounds})
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			v := j.View()
			if v.Result == nil {
				t.Fatalf("job ended %s: %s", v.State, v.Error)
			}
			// The HELLO frame carries the run ID — seed-derived in the CLI,
			// minted per job by the daemon — so shard traffic differs by its
			// length; every other field must agree.
			if job := jsonCopy(t, v.Result); !reflect.DeepEqual(withoutShardBytes(cli), withoutShardBytes(job)) {
				t.Fatalf("cli and service job reports differ\ncli: %+v\njob: %+v", cli, job)
			}
		})
	}
}

// jsonCopy round-trips rep through JSON, as the CLI's -json output is, so
// nil-versus-empty slices compare alike, and blanks its wall clock.
func jsonCopy(t *testing.T, rep *graph.RunReport) graph.RunReport {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var out graph.RunReport
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	zeroReportClock(&out)
	return out
}

// zeroReportClock blanks a report's wall-clock fields.
func zeroReportClock(rep *graph.RunReport) {
	rep.DurationMS, rep.EdgesPerSec = 0, 0
	for i := range rep.RoundStats {
		rep.RoundStats[i].DurationMS = 0
	}
	zeroPhases(rep.MachineStats)
	for i := range rep.RoundStats {
		zeroPhases(rep.RoundStats[i].MachineStats)
	}
}

// withoutShardBytes returns a copy of rep with the run-ID-dependent shard
// traffic blanked.
func withoutShardBytes(rep graph.RunReport) graph.RunReport {
	rep.ShardBytes = 0
	rep.RoundStats = append([]graph.RoundReport(nil), rep.RoundStats...)
	for i := range rep.RoundStats {
		rep.RoundStats[i].ShardBytes = 0
	}
	return rep
}

func zeroPhases(ms []graph.MachineStats) {
	for i := range ms {
		ms[i].DecodeMS, ms[i].BuildMS, ms[i].EncodeMS = 0, 0, 0
	}
}
