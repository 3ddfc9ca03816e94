package cluster

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// seedHellos are real HELLO payloads: every registered task's session
// HELLO, single-round and (where the task has one) capped, with and without
// a declared vertex count.
func seedHellos(f *testing.F) {
	for _, name := range task.Names() {
		d := task.MustGet(name)
		p := task.Params{EDCS: edcs.ParamsForBeta(16)}
		caps := []int{0}
		if d.WireRounds != 0 {
			caps = append(caps, 3)
		}
		for _, rc := range caps {
			for _, n := range []int{0, 600} {
				s, err := OpenSession(Config{Workers: []string{"a", "b", "c"}, RunID: "r-0000002a"}, d, p, rc, n)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(encodeHello(s.hello(2)))
			}
		}
	}
}

// FuzzHello: decodeHello must absorb arbitrary bytes, and anything it
// accepts must round-trip — decode → encode → decode is a fixpoint, and
// re-encoding the re-decoded HELLO reproduces the same bytes (the encoding
// is canonical even when the input carried non-minimal varints, stray flag
// bits or trailing bytes).
func FuzzHello(f *testing.F) {
	seedHellos(f)
	f.Add([]byte{})
	f.Add([]byte{protocolVersion, taskEDCSRounds, helloFlagTelem, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		enc := encodeHello(h)
		got, err := decodeHello(enc)
		if err != nil {
			t.Fatalf("re-decode of %x (from %x) failed: %v", enc, data, err)
		}
		if got != h {
			t.Fatalf("decode/encode not a fixpoint:\n got %+v\nwant %+v", got, h)
		}
		if re := encodeHello(got); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding not canonical: %x then %x", enc, re)
		}
	})
}

// realTelem is the TELEM payload a worker emits for one round of task name
// over a small GNP shard.
func realTelem(name string) []byte {
	g := gen.GNP(300, 0.05, rng.New(3))
	m := stream.NewMachine(task.MustGet(name).NewBuilder(2, g.N, task.Params{EDCS: edcs.ParamsForBeta(8)}))
	for _, e := range g.Edges {
		m.Add(e)
	}
	m.Finish(g.N)
	bt := m.Telem()
	return appendTelem(nil, workerTelem{
		decodeNS: 12345, buildNS: 678901, encodeNS: 2345,
		edgesIn: m.Received(), repairIters: bt.RepairIters, removals: bt.Removals, peakCoreset: bt.PeakCoreset,
	})
}

// FuzzTelem: the same fixpoint property for decodeTelem.
func FuzzTelem(f *testing.F) {
	for _, name := range task.Names() {
		f.Add(realTelem(name))
	}
	f.Add(appendTelem(nil, workerTelem{}))
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		tm, err := decodeTelem(data)
		if err != nil {
			return
		}
		enc := appendTelem(nil, tm)
		got, err := decodeTelem(enc)
		if err != nil {
			t.Fatalf("re-decode of %x (from %x) failed: %v", enc, data, err)
		}
		if got != tm {
			t.Fatalf("decode/encode not a fixpoint:\n got %+v\nwant %+v", got, tm)
		}
		if re := appendTelem(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding not canonical: %x then %x", enc, re)
		}
	})
}

// realFrames is one run-assignment's frames as they cross the wire: HELLO,
// ACK, SHARD, EOS, TELEM and CORESET for a matching machine, plus an ERROR.
func realFrames(f *testing.F) [][]byte {
	g := gen.GNP(200, 0.05, rng.New(5))
	s, err := OpenSession(Config{Workers: []string{"a", "b"}, RunID: "r-00000005"}, task.MustGet("matching"), task.Params{}, 0, g.N)
	if err != nil {
		f.Fatal(err)
	}
	m := stream.NewMachine(task.MustGet("matching").NewBuilder(2, g.N, task.Params{}))
	for _, e := range g.Edges {
		m.Add(e)
	}
	payloads := []struct {
		typ     byte
		payload []byte
	}{
		{frameHello, encodeHello(s.hello(1))},
		{frameAck, []byte{protocolVersion, ackCapTelem}},
		{frameShard, graph.AppendEdgeBatch(nil, g.Edges)},
		{frameEOS, binary.AppendUvarint(nil, uint64(g.N))},
		{frameTelem, realTelem("matching")},
		{frameCoreset, appendSummary(nil, taskMatching, m.Finish(g.N))},
		{frameError, []byte("cluster: unexpected frame 0x09 mid-shard")},
	}
	var frames [][]byte
	for _, p := range payloads {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, p.typ, p.payload); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	return frames
}

// FuzzReadFrame: readFrame must never panic on arbitrary bytes, never
// allocate beyond maxFramePayload however large a length the header claims,
// and any frame it accepts must re-write byte-identically.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range realFrames(f) {
		f.Add(fr)
	}
	f.Add([]byte{frameShard, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{frameShard, 0x00, 0x00, 0x00, 0x05, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, payload, n, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Slack covers the reader, the error values and runtime noise.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxFramePayload+1<<20 {
			t.Fatalf("readFrame allocated %d bytes, limit %d", alloc, maxFramePayload)
		}
		if err != nil {
			return
		}
		if len(payload) > maxFramePayload || n != frameHeaderLen+len(payload) {
			t.Fatalf("accepted frame: payload %d bytes, wire size %d", len(payload), n)
		}
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-writing an accepted frame: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("re-written frame %x differs from the wire bytes %x", buf.Bytes(), data[:n])
		}
	})
}
