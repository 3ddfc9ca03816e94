package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// wallClockRe matches the only nondeterministic values in the text output:
// throughput, run duration and the workers' per-phase wall times.
var wallClockRe = regexp.MustCompile(`[0-9.e+]+ edges/sec \([0-9.]+ ms\)|(decode|build|encode) [0-9.]+ms`)

func zeroWallClock(s string) string {
	return wallClockRe.ReplaceAllStringFunc(s, func(m string) string {
		if strings.HasSuffix(m, "ms)") {
			return "* edges/sec (* ms)"
		}
		return strings.Fields(m)[0] + " *ms"
	})
}

// TestTextGoldenShapes pins the full (non-quiet) text output of every
// runtime shape — batch, stream and cluster, single-round and multi-round —
// on one fixed input, with only the wall-clock values blanked.
func TestTextGoldenShapes(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	fleet := strings.Join(addrs, ",")
	input := []string{"-gen", "gnp", "-n", "300", "-deg", "30", "-seed", "5", "-k", "4"}
	vc := []string{"-task", "vc"}
	rounds := []string{"-task", "edcs", "-beta", "4", "-rounds", "2"}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"batch", vc, `graph: n=300 m=4425, k=4 machines
fixed vertices per machine: [0 0 0 0]
residual edges per machine: [1102 1082 1131 1110]
communication: total 11649 bytes, max machine 2990 bytes
vertex cover: 288 vertices (distributed, 4 machines)
`},
		{"stream", append(vc, "-stream"), `stream: n=300, 4425 edges in 5 batches, k=4 machines
communication: total 11592 bytes, max machine 2981 bytes
throughput: * edges/sec (* ms)
fixed vertices per machine: [0 1 0 0]
residual edges per machine: [1029 1131 1134 1109]
stored vs received per machine: [1029 1149 1134 1109] / [1029 1153 1134 1109]
vertex cover: 288 vertices (streamed, 4 machines)
`},
		{"cluster", append(vc, "-cluster", fleet), `cluster: n=300, 4425 edges in 5 batches, k=4 worker processes
communication (measured): total 11636 bytes, max machine 2992 bytes; simulated estimate 11592 bytes
shard traffic: 11814 bytes to workers; throughput * edges/sec (* ms)
  machine 0: decode *ms build *ms encode *ms; 1029 edges in, 0 repair iters, 0 removals, peak |H| 0
  machine 1: decode *ms build *ms encode *ms; 1153 edges in, 0 repair iters, 0 removals, peak |H| 0
  machine 2: decode *ms build *ms encode *ms; 1134 edges in, 0 repair iters, 0 removals, peak |H| 0
  machine 3: decode *ms build *ms encode *ms; 1109 edges in, 0 repair iters, 0 removals, peak |H| 0
fixed vertices per machine: [0 1 0 0]
residual edges per machine: [1029 1131 1134 1109]
vertex cover: 288 vertices (cluster, 4 machines)
`},
		{"batch-rounds", rounds, `graph: n=300 m=4425, k=4 machines
rounds: 2 of 2 (cap); total comm 4375 bytes (est)
  round 0: k=4 input=4425 union=1129 comm=2998 bytes
  round 1: k=2 input=1129 union=514 comm=1377 bytes
edcs: 150 edges matched (multi-round, 2 rounds, 4 machines)
`},
		{"stream-rounds", append(rounds, "-stream"), `rounds: 2 of 2 (cap); total comm 4375 bytes (est)
  round 0: k=4 input=4425 union=1129 comm=2998 bytes
  round 1: k=2 input=1129 union=514 comm=1377 bytes
edcs: 150 edges matched (multi-round streamed, 2 rounds, 4 machines)
`},
		{"cluster-rounds", append(rounds, "-cluster", fleet), `rounds: 2 of 2 (cap); total comm 4439 bytes (measured)
  round 0: k=4 input=4425 union=1129 comm=3042 bytes
    machine 0: decode *ms build *ms encode *ms; 1029 edges in, 1258 repair iters, 173 removals, peak |H| 284
    machine 1: decode *ms build *ms encode *ms; 1153 edges in, 1322 repair iters, 190 removals, peak |H| 282
    machine 2: decode *ms build *ms encode *ms; 1134 edges in, 1299 repair iters, 185 removals, peak |H| 280
    machine 3: decode *ms build *ms encode *ms; 1109 edges in, 1302 repair iters, 184 removals, peak |H| 283
  round 1: k=2 input=1129 union=514 comm=1397 bytes
    machine 0: decode *ms build *ms encode *ms; 587 edges in, 628 repair iters, 26 removals, peak |H| 262
    machine 1: decode *ms build *ms encode *ms; 542 edges in, 636 repair iters, 33 removals, peak |H| 252
edcs: 150 edges matched (multi-round cluster, 2 rounds, 4 machines)
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string{}, tc.args...), input...)
			out, errOut, code := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut)
			}
			if got := zeroWallClock(out); got != tc.want {
				t.Fatalf("stdout:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
