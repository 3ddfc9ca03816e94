package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// fixedCoresetWorker completes the handshake and the shard stream of every
// connection, then answers EOS with the given CORESET payload whatever it
// was sent.
func fixedCoresetWorker(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if typ, _, _, err := readFrame(conn); err != nil || typ != frameHello {
					return
				}
				if _, err := writeFrame(conn, frameAck, []byte{protocolVersion}); err != nil {
					return
				}
				for {
					typ, _, _, err := readFrame(conn)
					if err != nil {
						return
					}
					if typ == frameEOS {
						break
					}
				}
				_, _ = writeFrame(conn, frameCoreset, payload)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestOutOfRangeCoresetIsProtocolFailure: a CORESET that decodes cleanly but
// names a vertex id at or above the round's vertex count must fail the run as
// a terminal KindProtocol error. Composing it would index the coordinator's
// n-sized tables out of range and panic the process.
func TestOutOfRangeCoresetIsProtocolFailure(t *testing.T) {
	const far = graph.ID(1 << 20)
	for _, tc := range []struct {
		name, task string
		sum        stream.Summary
	}{
		{"vc fixed id", "vc", stream.Summary{VC: &core.VCCoreset{
			Levels: [][]graph.ID{{3, far}}, Fixed: []graph.ID{3, far}, Residual: []graph.Edge{},
		}}},
		{"vc residual edge", "vc", stream.Summary{VC: &core.VCCoreset{
			Levels: [][]graph.ID{nil}, Residual: []graph.Edge{{U: 1, V: far}},
		}}},
		{"matching edge", "matching", stream.Summary{Coreset: []graph.Edge{{U: 1, V: far}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := task.MustGet(tc.task)
			addr := fixedCoresetWorker(t, task.AppendSummary(nil, d, tc.sum))
			g := gen.GNP(1000, 0.004, rng.New(61))
			cfg := Config{
				Workers: []string{addr}, Seed: 61, BatchSize: 64,
				MaxRetries: 2, RetryBackoff: time.Millisecond, // replay armed, must not fire
			}
			err := runWithTimeout(t, 30*time.Second, func() error {
				_, _, err := Solve(context.Background(), stream.NewGraphSource(g), cfg, d, task.Params{})
				return err
			})
			var we *WorkerError
			if !errors.As(err, &we) {
				t.Fatalf("err = %v, want *WorkerError", err)
			}
			if we.Kind != KindProtocol || we.Retryable {
				t.Fatalf("out-of-range CORESET classified kind=%s retryable=%v, want protocol terminal", we.Kind, we.Retryable)
			}
		})
	}
}
