package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	written := 0
	for i, p := range payloads {
		n, err := writeFrame(&buf, byte(i+1), p)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != frameHeaderLen+len(p) {
			t.Fatalf("frame %d: wrote %d bytes, want %d", i, n, frameHeaderLen+len(p))
		}
		written += n
	}
	if buf.Len() != written {
		t.Fatalf("buffer holds %d bytes, accounting says %d", buf.Len(), written)
	}
	for i, p := range payloads {
		typ, payload, n, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) || n != frameHeaderLen+len(p) || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: got type %d len %d", i, typ, n)
		}
	}
}

func TestFrameLimits(t *testing.T) {
	if _, err := writeFrame(&bytes.Buffer{}, frameShard, make([]byte, maxFramePayload+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// An oversized length prefix must be rejected before allocation.
	hdr := []byte{frameShard, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	// Truncated header and truncated payload.
	if _, _, _, err := readFrame(bytes.NewReader([]byte{frameShard, 0x00})); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, _, _, err := readFrame(bytes.NewReader([]byte{frameShard, 0x00, 0x00, 0x00, 0x05, 0x01})); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []hello{
		{version: protocolVersion, task: taskMatching, machine: 0, k: 1},
		{version: protocolVersion, task: taskVC, machine: 7, k: 8, known: true, n: 1 << 20},
		{version: protocolVersion, task: taskEDCS, machine: 2, k: 4, known: true, n: 1 << 10, edcs: edcs.ParamsForBeta(32)},
		{version: protocolVersion, task: taskMatching, machine: 1, k: 2, telem: true, runID: "r-00c0ffee"},
		{version: protocolVersion, task: taskEDCS, machine: 0, k: 2, known: true, n: 1 << 8,
			edcs: edcs.ParamsForBeta(16), telem: true}, // telemetry requested with an empty run ID
	} {
		got, err := decodeHello(encodeHello(h))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v want %+v", got, h)
		}
	}
}

// TestSessionHelloBytes pins the HELLO each session shape mints to its exact
// wire bytes: with no round cap, the task's single-round byte, no rounds
// field, and the known flag exactly as the source declared it; with a cap,
// the rounds byte and the rounds still owed, which shrink as rounds
// complete (a connection dialed or replayed mid-run agrees with the
// coordinator).
func TestSessionHelloBytes(t *testing.T) {
	p16 := task.Params{EDCS: edcs.ParamsForBeta(16)}
	single, err := openSession(Config{Workers: []string{"a", "b", "c"}, RunID: "r-0000002a"}, task.MustGet("matching"), task.Params{}, 0, true, 600)
	if err != nil {
		t.Fatal(err)
	}
	unknownN, err := openSession(Config{Workers: []string{"a", "b"}}, task.MustGet("vc"), task.Params{}, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := OpenSession(Config{Workers: []string{"a", "b"}, RunID: "r-0000002a"}, task.MustGet("edcs"), p16, 3, 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Session
		m    int
		ran  int
		want string
	}{
		{"single-round", single, 1, 0, "0101030103d8040a722d3030303030303261"},
		{"single-round unknown n", unknownN, 0, 0, "01020200020000"},
		{"capped round 0", capped, 1, 0, "0104030102d804100c030a722d3030303030303261"},
		{"capped round 1", capped, 1, 1, "0104030102d804100c020a722d3030303030303261"},
	} {
		tc.s.roundsRun = tc.ran
		if got := hex.EncodeToString(encodeHello(tc.s.hello(tc.m))); got != tc.want {
			t.Errorf("%s: HELLO %s, want %s", tc.name, got, tc.want)
		}
	}

	// A round cap needs a rounds-capable task and a cap the wire can carry.
	if _, err := OpenSession(Config{Workers: []string{"a"}}, task.MustGet("matching"), task.Params{}, 2, 0); err == nil {
		t.Error("round cap accepted for a task with no multi-round assignment")
	}
	for _, rc := range []int{-1, maxWireRounds + 1} {
		if _, err := OpenSession(Config{Workers: []string{"a"}}, task.MustGet("edcs"), p16, rc, 0); err == nil {
			t.Errorf("round cap %d accepted", rc)
		}
	}
}

func TestHelloRejectsBadFields(t *testing.T) {
	for name, h := range map[string]hello{
		"version":     {version: 99, task: taskMatching, k: 1},
		"task":        {version: protocolVersion, task: 9, k: 1},
		"machine-oob": {version: protocolVersion, task: taskVC, machine: 3, k: 3},
		"zero-k":      {version: protocolVersion, task: taskVC, machine: 0, k: 0},
		"huge-k":      {version: protocolVersion, task: taskVC, machine: 0, k: maxK + 1},
		// n drives an O(n) allocation in the VC machine; a worker that
		// accepted an unbounded count could be crashed by one frame.
		"huge-n": {version: protocolVersion, task: taskVC, k: 1, known: true, n: maxVertices + 1},
		// EDCS params the dynamic subgraph cannot satisfy, or absurdly large.
		"edcs-invalid": {version: protocolVersion, task: taskEDCS, k: 1, edcs: edcs.Params{Beta: 4, BetaMinus: 4}},
		"edcs-huge":    {version: protocolVersion, task: taskEDCS, k: 1, edcs: edcs.Params{Beta: edcs.MaxBeta + 1, BetaMinus: 1}},
		// A hostile run ID length must be rejected before allocation.
		"runid-huge": {version: protocolVersion, task: taskMatching, k: 1, telem: true, runID: strings.Repeat("x", maxRunIDLen+1)},
	} {
		if _, err := decodeHello(encodeHello(h)); err == nil {
			t.Fatalf("%s: bad HELLO accepted", name)
		}
	}
	if _, err := decodeHello([]byte{protocolVersion}); err == nil {
		t.Fatal("short HELLO accepted")
	}
}

// TestWorkerSurvivesHostileFrames: frames that could drive unbounded
// allocations (huge HELLO n, huge EOS n) must be answered with ERROR and
// must not take down the resident worker — it keeps serving honest runs.
func TestWorkerSurvivesHostileFrames(t *testing.T) {
	addrs, shutdown, err := ServeLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	attack := func(send func(conn net.Conn)) {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		send(conn)
		typ, _, _, err := readFrame(conn)
		if err != nil || typ != frameError {
			t.Fatalf("hostile frame answered with type 0x%02x err %v, want ERROR", typ, err)
		}
	}
	// Huge vertex count in HELLO (would allocate O(n) VC state).
	attack(func(conn net.Conn) {
		h := hello{version: protocolVersion, task: taskVC, k: 1, known: true, n: maxVertices + 1}
		_, _ = writeFrame(conn, frameHello, encodeHello(h))
	})
	// Valid handshake, then a huge EOS count (would allocate at Finish).
	attack(func(conn net.Conn) {
		h := hello{version: protocolVersion, task: taskMatching, k: 1}
		_, _ = writeFrame(conn, frameHello, encodeHello(h))
		if typ, _, _, err := readFrame(conn); err != nil || typ != frameAck {
			t.Fatalf("handshake failed: type 0x%02x err %v", typ, err)
		}
		var eos [10]byte
		_, _ = writeFrame(conn, frameEOS, eos[:binary.PutUvarint(eos[:], 1<<40)])
	})

	// The worker is still alive and serves an honest run.
	g := gen.GNP(300, 0.05, rng.New(8))
	sol, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: addrs, Seed: 8}, task.MustGet("matching"), task.Params{})
	if err != nil || sol.Matching.Size() == 0 {
		t.Fatalf("worker unusable after hostile frames: %v", err)
	}
}

// TestSummaryCodecParity: what a real machine emits must survive the wire
// byte-for-byte — encode then decode reproduces the Summary deep-equal,
// including the nil-versus-empty slice shapes the seed-parity guarantee
// needs (nil levels, non-nil empty coresets and residuals).
func TestSummaryCodecParity(t *testing.T) {
	g := gen.GNP(500, 40.0/500, rng.New(3))
	feed := func(m *stream.Machine, edges []graph.Edge) stream.Summary {
		for _, e := range edges {
			m.Add(e)
		}
		return m.Finish(g.N)
	}
	cases := []struct {
		name string
		task byte
		sum  stream.Summary
	}{
		{"matching", taskMatching, feed(stream.NewMachine(task.MustGet("matching").NewBuilder(0, 0, task.Params{})), g.Edges)},
		{"matching-empty", taskMatching, feed(stream.NewMachine(task.MustGet("matching").NewBuilder(0, 0, task.Params{})), nil)},
		{"vc-online-peel", taskVC, feed(stream.NewMachine(task.MustGet("vc").NewBuilder(4, g.N, task.Params{})), g.Edges)},
		{"vc-no-hint", taskVC, feed(stream.NewMachine(task.MustGet("vc").NewBuilder(4, 0, task.Params{})), g.Edges)},
		{"vc-empty", taskVC, feed(stream.NewMachine(task.MustGet("vc").NewBuilder(4, g.N, task.Params{})), nil)},
		{"edcs", taskEDCS, feed(stream.NewMachine(task.MustGet("edcs").NewBuilder(0, g.N, task.Params{EDCS: edcs.ParamsForBeta(8)})), g.Edges)},
		{"edcs-empty", taskEDCS, feed(stream.NewMachine(task.MustGet("edcs").NewBuilder(0, 0, task.Params{EDCS: edcs.ParamsForBeta(8)})), nil)},
	}
	for _, tc := range cases {
		got, err := decodeSummary(tc.task, appendSummary(nil, tc.task, tc.sum))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.sum) {
			t.Fatalf("%s: decoded summary differs:\ngot  %+v\nwant %+v", tc.name, got, tc.sum)
		}
	}
}

func TestSummaryCodecCorrupt(t *testing.T) {
	for _, data := range [][]byte{nil, {0x01}, {0x01, 0x01, 0x01}} {
		if _, err := decodeSummary(taskMatching, data); err == nil {
			t.Fatalf("corrupt matching summary %v accepted", data)
		}
		if _, err := decodeSummary(taskVC, data); err == nil {
			t.Fatalf("corrupt vc summary %v accepted", data)
		}
	}
	// Trailing garbage after a valid body must be rejected.
	valid := appendSummary(nil, taskMatching, stream.NewMachine(task.MustGet("matching").NewBuilder(0, 0, task.Params{})).Finish(0))
	if _, err := decodeSummary(taskMatching, append(valid, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestWorkerRejectsGarbageHello: a worker must answer a malformed handshake
// with an ERROR frame, not a hang or a crash.
func TestWorkerRejectsGarbageHello(t *testing.T) {
	addrs, shutdown, err := ServeLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeFrame(conn, frameHello, []byte{0x63}); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameError || !strings.Contains(string(payload), "HELLO") {
		t.Fatalf("got frame 0x%02x %q, want ERROR about HELLO", typ, payload)
	}
}
