package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/task"
)

// benchmarkFile is the part of BENCHMARK.json these tests hold the program to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, c := range []struct {
		name      string
		file, prg []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.prg) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.file), len(c.prg))
			continue
		}
		for i := range c.file {
			if c.file[i] != c.prg[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.name, i, c.file[i], c.prg[i])
			}
		}
	}
}

// small shrinks a workload to a smoke-test size with the same shape.
func small(w workload) workload {
	w.N /= 8
	w.Inputs = min(w.Inputs, 2)
	return w
}

// TestSmokeEveryMetricPrinted runs every workload at a reduced size, traced
// and untraced, and checks that each metric BENCHMARK.json names is printed
// by name with its unit, both on a human-readable line and in the JSON
// result, that every check passed, and that the trace is Chrome-trace JSON.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		w := small(w)
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "trace.json")
			for _, mode := range []struct {
				name string
				defs []metricDef
				run  func() (*result, error)
			}{
				{"untraced", b.EndToEnd, func() (*result, error) {
					return runEndToEnd(context.Background(), w, 7, 0.2, dir)
				}},
				{"traced", b.PerLayer, func() (*result, error) {
					return runTraced(context.Background(), w, 7, 0.2, dir, tracePath)
				}},
			} {
				res, err := mode.run()
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				var out bytes.Buffer
				res.write(&out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("%s: last line is not the JSON result: %v", mode.name, err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Fatalf("%s: correct=%t failed=%d attempted=%d; errors %v", mode.name, got.Correct, got.Failed, got.Attempted, res.errs)
				}
				if len(got.Metrics) != len(mode.defs) {
					t.Errorf("%s: JSON has %d metrics, BENCHMARK.json names %d", mode.name, len(got.Metrics), len(mode.defs))
				}
				for _, d := range append(mode.defs, metricDef{"fail_frac", "ratio"}) {
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + `\s+\S+\s+` + regexp.QuoteMeta(d.Unit) + `(\s|$)`)
					if !line.MatchString(out.String()) {
						t.Errorf("%s: no line %q with unit %q", mode.name, d.Name, d.Unit)
					}
					if m, ok := got.Metrics[d.Name]; d.Name != "fail_frac" && (!ok || m.Unit != d.Unit) {
						t.Errorf("%s: JSON metric %q = %+v, want unit %q", mode.name, d.Name, m, d.Unit)
					}
				}
			}
			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ TraceEvents []chromeEvent }
			if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Fatalf("trace: %d events, err %v", len(tr.TraceEvents), err)
			}
		})
	}
}

// TestCheckerCountsWrongAnswers feeds the checker deliberately wrong
// answers: a matching with two edges on one vertex, and a cover that misses
// an edge.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 2, V: 3}}

	// Vertex 0 matched to both 1 and 2.
	bad := matching.NewEmpty(4)
	bad.Mate[0], bad.Mate[1], bad.Mate[2] = 1, 0, 0
	good := matching.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	c := &checker{d: task.MustGet("matching"), n: 4, edges: edges}
	if err := c.check(jobOut{sol: task.Solution{Size: 2, Matching: bad}}); err == nil {
		t.Error("matching with two edges on vertex 0 passed the check")
	}
	if err := c.check(jobOut{sol: task.Solution{Size: good.Size(), Matching: good}}); err != nil {
		t.Errorf("valid matching failed the check: %v", err)
	}

	// {0, 3} leaves nothing uncovered; {0} misses edge 2-3.
	c = &checker{d: task.MustGet("vc"), n: 4, edges: edges}
	if err := c.check(jobOut{sol: task.Solution{Size: 2, Cover: []graph.ID{0, 3}}}); err != nil {
		t.Errorf("valid cover failed the check: %v", err)
	}
	if err := c.check(jobOut{sol: task.Solution{Size: 1, Cover: []graph.ID{0}}}); err == nil {
		t.Error("cover missing edge 2-3 passed the check")
	}

	// A cluster answer that differs from the stream runtime's fails, and so
	// does a measured/estimated byte ratio outside [1, 2].
	ref := task.Solution{Size: 2, Cover: []graph.ID{0, 3}}
	c = &checker{d: task.MustGet("vc"), n: 4, edges: edges, ref: &ref}
	if err := c.check(jobOut{sol: task.Solution{Size: 2, Cover: []graph.ID{0, 2}}}); err == nil {
		t.Error("cluster cover differing from the stream cover passed the check")
	}
	if err := c.check(jobOut{sol: ref, commBytes: 300, estBytes: 100}); err == nil {
		t.Error("measured/estimated bytes of 3 passed the check")
	}
}

// TestFailedCheckFailsTheRun checks that a failed answer reaches the
// result: counted as failed, reported as not correct, no measurements.
func TestFailedCheckFailsTheRun(t *testing.T) {
	res := &result{attempted: 3}
	res.fail(os.ErrInvalid)
	var out bytes.Buffer
	res.write(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := `{"correct":false,"attempted":3,"failed":1,"metrics":{}}`; lines[len(lines)-1] != want {
		t.Errorf("result line %s, want %s", lines[len(lines)-1], want)
	}
	if !strings.Contains(out.String(), "fail_frac") {
		t.Error("fail_frac not printed")
	}
}
