// Command perfbench is the repository's layered benchmark. It runs one of
// three workloads (workload.go) with one closed-loop client and one job in
// flight, checks every answer, and prints its metrics by name and unit; the
// last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with nothing
// but a stopwatch around each job. With -trace 1 the run instead decomposes
// every job into calls to each module's public functions (dataset read, hash
// shard, per-machine build, summary codec, compose, the exact matcher, the
// cluster and multi-round runtimes), records a span around each call, prints the
// per-layer metrics and each layer's self time, and writes the spans as a
// Chrome trace that Perfetto opens.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload matching-gnp-stream --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run. fail_frac is printed too,
// but only on the human-readable lines: the JSON result carries it as
// failed/attempted, and a metric that is 0 on every good run has no median
// to bound.
var endToEnd = []metricDef{
	{"run_s_p50", "s"},
	{"edges_per_s", "edges/s"},
	{"setup_s", "s"},
	{"comm_bytes", "bytes"},
	{"max_machine_bytes", "bytes"},
	{"approx_ratio", "ratio"},
	{"alloc_bytes", "bytes"},
	{"peak_rss_bytes", "bytes"},
}

// outDir holds everything a run leaves behind (traces, scratch datasets),
// relative to the directory the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed for the workload's input and the hash sharder")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, " | "))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.Name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "# provenance %s\n", provenance())
	ctx := context.Background()
	steal0, total0 := cpuStat()
	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, w, *seed, *seconds, work,
			filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, *seed)))
	} else {
		res, err = runEndToEnd(ctx, w, *seed, *seconds, work)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if steal1, total1 := cpuStat(); total1 > total0 {
		res.note("# host steal=%.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	res.write(stdout)
	if res.failed > 0 {
		for _, e := range res.errs {
			fmt.Fprintln(stderr, "perfbench: check failed:", e)
		}
		return 1
	}
	return 0
}

// result is one run's outcome: the job accounting, the metrics in print
// order, and the human-readable lines printed before them.
type result struct {
	attempted, failed int
	errs              []string // the first few failures
	notes             []string
	metrics           []metricValue
}

type metricValue struct {
	metricDef
	Value float64
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addAll appends one value per definition, in the definitions' order.
func (r *result) addAll(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		r.metrics = append(r.metrics, metricValue{d, vals[d.Name]})
	}
}

// write prints the notes, one "name value unit" line per metric, fail_frac,
// and the JSON result as the last line.
func (r *result) write(out io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := map[string]jsonMetric{}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-28s %-14s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		js[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "%-28s %-14s ratio (%d of %d jobs)\n", "fail_frac", strconv.FormatFloat(frac, 'g', 6, 64), r.failed, r.attempted)
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, js})
	fmt.Fprintln(out, string(line))
}

// provenance names what was measured: commit, toolchain, scheduler width
// and CPU.
func provenance() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("git=%s go=%s gomaxprocs=%d ncpu=%d cpu=%q",
		gitHead(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
}

// gitHead reads the commit checked out in the current directory, or
// "unknown" outside a git checkout.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// params describes the workload's inputs and configuration.
func params(w workload, draws []draw) string {
	return fmt.Sprintf("# params task=%s runtime=%s gen=%s n=%d deg=%g inputs=%d mean_m=%d k=%d rounds=%d beta=%d dataset=%t",
		w.Task, w.Runtime, w.Gen, w.N, w.Deg, len(draws), edgeCount(draws)/len(draws), w.K, w.Rounds, w.Beta, w.Dataset)
}

// scratchDir is set-up i's directory for datasets under work.
func scratchDir(work string, i int) string {
	return filepath.Join(work, fmt.Sprintf("setup-%d", i))
}

// cpuStat reads the machine's stolen and total CPU time, in ticks, from the
// first line of /proc/stat: time the hypervisor gave to other guests slows
// every job, so a run reports how much of it there was.
func cpuStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSS reads the process's resident-set high-water mark (VmHWM).
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024
			}
		}
	}
	return 0
}

// quantile returns the q-quantile of xs (linear interpolation).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
