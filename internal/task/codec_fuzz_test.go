package task

import (
	"bytes"
	"testing"

	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// codecFuzzTasks are the tasks whose CORESET bodies FuzzSummaryCodec drives.
var codecFuzzTasks = []string{"matching", "vc", "edcs"}

// FuzzSummaryCodec feeds arbitrary bytes to the matching, vc and edcs
// CORESET decoders. DecodeSummary must never panic, and any payload a task
// accepts must be canonical: AppendSummary re-encodes the decoded summary to
// the identical bytes. The corpus is seeded with real summaries, a vc one
// with peeled levels among them, and with empty machines.
func FuzzSummaryCodec(f *testing.F) {
	g := gen.GNP(300, 8.0/300, rng.New(21))
	star := gen.Star(600)
	for _, name := range codecFuzzTasks {
		d := MustGet(name)
		p := Params{EDCS: edcs.ParamsForBeta(8)}
		for _, in := range []*graph.Graph{g, star} {
			b := d.NewBuilder(2, in.N, p)
			part := partition.HashK(in.Edges, 2, 3)[0]
			for _, e := range part {
				b.Add(e)
			}
			s := b.Finish(in.N)
			s.Edges = len(part)
			f.Add(AppendSummary(nil, d, s))
		}
		f.Add(AppendSummary(nil, d, d.NewBuilder(2, 50, p).Finish(50)))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range codecFuzzTasks {
			d := MustGet(name)
			s, err := DecodeSummary(d, data)
			if err != nil {
				continue
			}
			if re := AppendSummary(nil, d, s); !bytes.Equal(re, data) {
				t.Fatalf("%s: accepted payload re-encodes differently:\n got %x\nwant %x", name, re, data)
			}
		}
	})
}
