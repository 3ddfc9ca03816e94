package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// module's public function.
type span struct {
	Name    string
	ID      int
	Parent  int // 0: top level
	Job     int // 0: set-up; jobs count from 1
	Machine int // -1 when the call is not per machine
	Start   time.Duration
	End     time.Duration
}

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder still times calls but records nothing, so set-up code is shared
// by traced and untraced runs.
type recorder struct {
	t0    time.Time
	job   int
	open  []int // IDs of the spans enclosing the next one
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it and reports
// its duration. Spans nest: one opened while another is open is its child.
func (r *recorder) begin(name string, machine int) func() time.Duration {
	start := time.Now()
	if r == nil {
		return func() time.Duration { return time.Since(start) }
	}
	s := span{Name: name, ID: len(r.spans) + 1, Job: r.job, Machine: machine, Start: start.Sub(r.t0)}
	if n := len(r.open); n > 0 {
		s.Parent = r.open[n-1]
	}
	r.spans = append(r.spans, s)
	r.open = append(r.open, s.ID)
	return func() time.Duration {
		end := time.Now()
		if k := slices.Index(r.open, s.ID); k >= 0 {
			r.open = r.open[:k] // also drops children an error path left open
		}
		r.spans[s.ID-1].End = end.Sub(r.t0)
		return end.Sub(start)
	}
}

// layerTime is one span name's total and self time over a run.
type layerTime struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration // total minus the time its child spans cover
}

// selfTimes sums each span name's duration and self time, largest self
// time first.
func (r *recorder) selfTimes() []layerTime {
	child := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []layerTime
	for _, s := range r.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		out[i].Calls++
		out[i].Total += s.End - s.Start
		out[i].Self += s.End - s.Start - child[s.ID]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// chromeEvent is one Chrome trace event, in the JSON object format that
// `coreset -trace-out` emits and Perfetto loads: "M" metadata naming a
// track, "X" complete events with microsecond timestamps and durations.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as a {"traceEvents": [...]} file: one
// process for the run, one track per job (track 0 is set-up), spans nested
// by their parent links.
func (r *recorder) writeChromeTrace(path, title string) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": title}}}
	named := map[int]bool{}
	for _, s := range r.spans {
		if !named[s.Job] {
			named[s.Job] = true
			track := "set-up"
			if s.Job > 0 {
				track = fmt.Sprintf("job %d", s.Job)
			}
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Tid: s.Job, Args: map[string]any{"name": track}})
		}
		args := map[string]any{"job": s.Job, "span": s.ID, "parent": s.Parent}
		if s.Machine >= 0 {
			args["machine"] = s.Machine
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Tid: s.Job,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
