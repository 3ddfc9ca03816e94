package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/task"
)

// Solve runs the full pipeline for any registered task across the configured
// workers: hash-shard the source's edges over the k worker connections,
// collect the per-machine summaries the descriptor's builders produced on
// the other side of the wire, and compose the final solution from their
// union — exactly the in-process stream.Solve, with the machines remote. It
// is a one-round Session: open with no round cap, run one Round, Close, then
// compose.
func Solve(ctx context.Context, src stream.EdgeSource, cfg Config, d *task.Descriptor, p task.Params) (task.Solution, *Stats, error) {
	start := time.Now()
	sums, st, err := runOnce(ctx, src, cfg, d, p)
	if err != nil {
		return task.Solution{}, nil, err
	}
	sol := d.Compose(st.N, sums)
	st.Duration = time.Since(start)
	return sol, st, nil
}

// runOnce is Solve before composition: a session with no round cap, whose
// HELLO declares the vertex count exactly when src does, runs one Round
// over the whole fleet and is closed.
func runOnce(ctx context.Context, src stream.EdgeSource, cfg Config, d *task.Descriptor, p task.Params) ([]stream.Summary, *Stats, error) {
	if src == nil {
		return nil, nil, errors.New("cluster: nil source")
	}
	n, known := 0, src.KnownUpfront()
	if known {
		n = src.NumVertices()
	}
	s, err := openSession(cfg, d, p, 0, known, n)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.Round(ctx, src, s.k, cfg.Seed)
}

// Session is one cluster conversation over a worker fleet — the coordinator
// side of the paper's simultaneous round, and of the multi-round MPC driver
// (arXiv:1711.03076, internal/rounds) that repeats that round on the union
// of the previous round's coresets. Each Round shards its input over the
// first k workers with the seeded partition.HashAssign every runtime uses,
// collects one CORESET frame per active machine, and leaves the connections
// open for the next round. A machine with no live connection dials and
// speaks its HELLO inside its own round goroutine, so a refused dial is an
// ordinary worker failure of that round.
//
// A session opened with no round cap is a single-round assignment: its
// HELLO carries the task's Wire byte, each worker answers one round, and
// the session runs exactly one Round (that is Solve). A capped session's
// HELLO carries the WireRounds byte and the rounds still owed; workers
// dropped by a shrinking schedule (k decreases between rounds) see no
// frames until Close ends the run at a round boundary.
//
// Communication is measured per round off the live connections: each
// Round's Stats carries the measured CORESET frame bytes
// (TotalCommBytes/MaxMachineBytes), the simulated estimate
// (EstCommBytes/EstMaxMachineBytes) and the coordinator-to-worker traffic
// (ShardBytes, which includes the HELLO of every connection the round
// opened, so summing rounds accounts for every coordinator-to-worker byte
// of the run; workers' ACK frames are not counted).
//
// A session is single-flight: Round may not be called concurrently. With
// Config.MaxRetries > 0 and a restartable round input, a retryable worker
// failure is recovered in place (retry.go): the broken connection is
// retired, the worker (or a Config.Spares standby) is re-dialed with a
// fresh HELLO, and only the current round is replayed — the replacement
// connection then serves the remaining rounds. Any unrecovered round error
// (non-retryable failure, exhausted retries, source error, cancellation)
// poisons the session; Close is the only valid call after that.
type Session struct {
	cfg       Config
	d         *task.Descriptor
	p         task.Params
	k         int  // fleet size: the most machines a round may use
	roundCap  int  // 0: single-round assignment
	known     bool // HELLO: vertex count declared upfront
	n         int  // HELLO: the declared vertex count
	roundsRun int
	conns     []net.Conn // live connection per machine; nil until dialed
	addrs     []string   // current address per machine; replay rotates in spares
	spares    []string
	broken    bool
	closed    bool
}

// OpenSession prepares a session running task d with parameters p over
// cfg's worker fleet. It opens no connection: each machine dials on the
// first Round that uses it. roundCap 0 opens a single-round assignment;
// roundCap in [1, 1024] opens a multi-round one of at most that many rounds
// (the workers pin the cap; the driver's early exit may stop sooner), which
// the task must support (d.WireRounds != 0). nHint > 0 declares the vertex
// count upfront; it never changes the result.
func OpenSession(cfg Config, d *task.Descriptor, p task.Params, roundCap, nHint int) (*Session, error) {
	return openSession(cfg, d, p, roundCap, nHint > 0, nHint)
}

func openSession(cfg Config, d *task.Descriptor, p task.Params, roundCap int, known bool, n int) (*Session, error) {
	if d.Validate != nil {
		if err := d.Validate(p); err != nil {
			return nil, err
		}
	}
	k := len(cfg.Workers)
	if k == 0 {
		return nil, errors.New("cluster: config needs at least one worker address")
	}
	if roundCap < 0 || roundCap > maxWireRounds {
		return nil, fmt.Errorf("cluster: round cap %d outside [0, %d]", roundCap, maxWireRounds)
	}
	if roundCap > 0 && d.WireRounds == 0 {
		return nil, fmt.Errorf("cluster: task %s has no multi-round assignment", d.Name)
	}
	return &Session{
		cfg: cfg, d: d, p: p, k: k, roundCap: roundCap, known: known, n: n,
		conns:  make([]net.Conn, k),
		addrs:  append([]string(nil), cfg.Workers...),
		spares: append([]string(nil), cfg.Spares...),
	}, nil
}

// hello mints machine m's HELLO — the only place one is built. A
// single-round session sends the task's Wire byte and no rounds field; a
// capped session sends WireRounds and the rounds still owed, current round
// included, so a connection dialed (or re-dialed by a replay) mid-run agrees
// with the coordinator's bookkeeping.
func (s *Session) hello(m int) hello {
	h := hello{
		version: protocolVersion, task: s.d.Wire,
		machine: m, k: s.k, known: s.known, n: s.n,
		edcs: s.p.EDCS, telem: true, runID: s.cfg.RunID,
	}
	if s.roundCap > 0 {
		h.task, h.rounds = s.d.WireRounds, s.roundCap-s.roundsRun
	}
	return h
}

// handshake dials machine m's current address and speaks its HELLO/ACK,
// under ctx (cancellation force-closes the connection) and the per-frame
// IOTimeout. It is the one place the coordinator opens a worker connection:
// the round fan-out and the replay waves both come through here. On failure
// the connection is closed and the typed failure returned; sent counts the
// HELLO bytes that reached the wire either way.
func (s *Session) handshake(ctx context.Context, m int) (net.Conn, int, *WorkerError) {
	addr := s.addrs[m]
	fail := func(kind FailureKind, err error) *WorkerError {
		return &WorkerError{Machine: m, Addr: addr, Kind: kind, Retryable: kind.retryable(), Err: err}
	}
	obs.Count(s.cfg.Obs, MetricDialAttempts, 1)
	dialer := net.Dialer{Timeout: s.cfg.dialTimeout()}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, fail(KindDial, err)
	}
	stopWatch := closeOnCancel(ctx, conn)
	defer stopWatch()
	iot := s.cfg.ioTimeout()
	sent, err := writeFrameDeadline(conn, iot, frameHello, encodeHello(s.hello(m)))
	countSent(s.cfg.Obs, m, sent, err)
	if err != nil {
		conn.Close()
		return nil, sent, fail(ioKind(err), fmt.Errorf("handshake: %w", err))
	}
	if kind, err := readAck(conn, iot); err != nil {
		conn.Close()
		return nil, sent, fail(kind, err)
	}
	return conn, sent, nil
}

// Round runs one round over the first k workers: shard src's edges with
// partition.HashAssign(e, k, seed) — the same seeded routing every runtime
// uses, so the round reproduces an in-process run bit for bit — then
// collect each active machine's summary. The returned summaries are indexed
// by machine; the Stats are this round's alone, with measured wire bytes.
//
// The caller's goroutine reads and shards the source; one goroutine per
// machine speaks the wire protocol (dial and HELLO/ACK if the machine has
// no live connection, SHARD stream with TCP backpressure, EOS once the
// final vertex count is known, CORESET back). The close(nReady) edge
// publishes nFinal to the machine goroutines exactly as in stream.run.
// A retryable worker failure in a replayable round lets the sharder and the
// healthy machines finish, then replays only the failed machines
// (retry.go); anything else cancels the round's context (stopping the
// sharder at the next batch boundary) and is returned as a typed
// *WorkerError — concurrent real failures joined behind the causally first
// one. Caller cancellation force-closes the connections, so no goroutine
// can stay blocked on the network, and every exit path closes the batch
// channels and waits for the machine goroutines. Error precedence: the
// caller's cancellation, then a source error, then the worker failures.
func (s *Session) Round(ctx context.Context, src stream.EdgeSource, k int, seed uint64) ([]stream.Summary, *Stats, error) {
	if s.closed || s.broken {
		return nil, nil, errors.New("cluster: session is no longer usable")
	}
	if src == nil {
		return nil, nil, errors.New("cluster: nil source")
	}
	if k < 1 || k > s.k {
		return nil, nil, fmt.Errorf("cluster: round k %d outside [1, %d]", k, s.k)
	}
	if limit := max(s.roundCap, 1); s.roundsRun >= limit {
		return nil, nil, fmt.Errorf("cluster: round cap %d exhausted", limit)
	}
	start := time.Now()

	_, restartable := src.(stream.Restartable)
	replayable := s.cfg.MaxRetries > 0 && restartable
	iot := s.cfg.ioTimeout()

	// runCtx is the round's internal lifetime: canceled by the caller's ctx
	// or by the first fatal worker failure, whichever comes first.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var (
		nFinal  int
		nReady  = make(chan struct{})
		results = make(chan workerResult, k)
		wg      sync.WaitGroup
	)
	// fails collects worker failures in causal order: fails[0] is the
	// machine that actually broke first. On a fatal failure cancelRun
	// force-closes every other connection, so the secondary I/O errors that
	// follow must not mask the primary; noteFailure always runs before that
	// cancelRun, which makes "first to record" exactly "first to fail".
	var (
		failMu sync.Mutex
		fails  []*WorkerError
	)
	chans := make([]chan []graph.Edge, k)
	for i := 0; i < k; i++ {
		chans[i] = make(chan []graph.Edge, 4)
		wg.Add(1)
		go func(machine int) {
			defer wg.Done()
			res := workerResult{machine: machine}
			defer func() {
				if res.err != nil {
					// A retryable failure in a replayable round must NOT stop
					// the sharder: the healthy machines finish their round
					// and only this machine is replayed. Anything else stops
					// the round. Either way, discard whatever the sharder
					// queued for this machine so it can never block on a
					// dead connection (the sharder owns close(chans[machine]),
					// so this drain always terminates).
					if we, ok := res.err.(*WorkerError); !ok || !we.Retryable || !replayable {
						cancelRun()
					}
					for range chans[machine] {
					}
				}
				results <- res
			}()
			fail := func(we *WorkerError) {
				res.err = we
				failMu.Lock()
				fails = append(fails, we)
				failMu.Unlock()
				obs.Count(s.cfg.Obs, MetricWorkerFailures, 1)
			}
			if s.conns[machine] == nil {
				conn, sent, we := s.handshake(runCtx, machine)
				res.sent += sent
				if we != nil {
					fail(we)
					return
				}
				s.conns[machine] = conn
			}
			conn := s.conns[machine]
			// Force-close the connection on cancellation so blocked reads and
			// writes fail promptly instead of hanging on a stuck peer.
			stopWatch := closeOnCancel(runCtx, conn)
			defer stopWatch()
			roundTrip(runCtx, conn, s.d, iot, chans[machine], nReady, &nFinal, &res, func(kind FailureKind, err error) {
				fail(&WorkerError{Machine: machine, Addr: s.addrs[machine], Kind: kind, Retryable: kind.retryable(), Err: err})
			}, s.cfg.Obs)
		}(i)
	}

	closeAll := func() {
		for _, ch := range chans {
			close(ch)
		}
	}
	total, batches, srcErr, aborted := shardSource(runCtx, src, chans, s.cfg.batchSize(), seed)
	if srcErr != nil || aborted {
		cancelRun() // release goroutines parked on nReady or blocked I/O
		closeAll()
	} else {
		closeAll()
		nFinal = src.NumVertices()
		close(nReady)
	}
	wg.Wait()
	close(results)

	byMachine := make([]workerResult, k)
	for r := range results {
		byMachine[r.machine] = r
	}
	// An unrecovered error leaves connections force-closed or mid-frame, so
	// the session is done for.
	failSession := func(err error) ([]stream.Summary, *Stats, error) {
		s.broken = true
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return failSession(err)
	}
	if srcErr != nil {
		return failSession(srcErr)
	}
	var nRetries int
	var replayedMachines []int
	if len(fails) > 0 {
		if !replayable || !allRetryable(fails) || aborted {
			ferr := joinFailures(fails)
			// Replay was asked for and every failure was replayable, but the
			// source cannot rewind: name the source kind so the caller knows
			// what to fix, rather than a generic worker failure.
			if s.cfg.MaxRetries > 0 && !restartable && allRetryable(fails) && !aborted {
				ferr = notRestartable(ferr, src)
			}
			return failSession(ferr)
		}
		failed := make(map[int]*WorkerError, len(fails))
		for _, we := range fails {
			failed[we.Machine] = we
		}
		rp := &replayer{s: s, seed: seed, k: k, nFinal: nFinal}
		var err error
		nRetries, replayedMachines, err = rp.replay(ctx, src, byMachine, failed)
		if err != nil {
			return failSession(err)
		}
	}
	if aborted { // canceled with no surviving cause: report it as such
		return failSession(context.Canceled)
	}

	sums := make([]stream.Summary, k)
	st := &Stats{
		K:                k,
		N:                nFinal,
		EdgesTotal:       total,
		Batches:          batches,
		PartEdges:        make([]int, k),
		StoredEdges:      make([]int, k),
		Live:             make([]int, k),
		Retries:          nRetries,
		ReplayedMachines: replayedMachines,
		MachineStats:     make([]graph.MachineStats, k),
	}
	wasReplayed := make(map[int]bool, len(replayedMachines))
	for _, m := range replayedMachines {
		wasReplayed[m] = true
	}
	for _, r := range byMachine {
		sums[r.machine] = r.sum
		st.PartEdges[r.machine] = r.sum.Edges
		st.StoredEdges[r.machine] = r.sum.Stored
		st.Live[r.machine] = r.sum.Live
		n := s.d.CoresetLen(r.sum)
		st.CoresetEdges = append(st.CoresetEdges, n)
		if s.d.FixedLen != nil {
			st.CoresetFixed = append(st.CoresetFixed, s.d.FixedLen(r.sum))
		}
		st.CompositionEdges += n
		st.TotalCommBytes += r.wire
		if r.wire > st.MaxMachineBytes {
			st.MaxMachineBytes = r.wire
		}
		st.EstCommBytes += r.sum.Bytes
		if r.sum.Bytes > st.EstMaxMachineBytes {
			st.EstMaxMachineBytes = r.sum.Bytes
		}
		st.ShardBytes += r.sent
		// Per-machine breakdown: a worker without the telemetry capability
		// still gets an entry (edges from its Summary, phase fields zero).
		ms := graph.MachineStats{Machine: r.machine, EdgesIn: r.sum.Edges}
		if r.telem != nil {
			ms = r.telem.machineStats(r.machine)
		}
		ms.Replayed = wasReplayed[r.machine]
		st.MachineStats[r.machine] = ms
	}
	s.roundsRun++
	st.Duration = time.Since(start)
	return sums, st, nil
}

// RoundsRun returns how many rounds the session has completed.
func (s *Session) RoundsRun() int { return s.roundsRun }

// Close ends the run: the connections are closed, which workers waiting at
// a round boundary treat as a clean end. It is idempotent — the second and
// later calls return nil — and after a mid-round failure it never masks the
// round's error with teardown noise: a poisoned session's connections are
// already force-closed or mid-frame, so their close errors are expected and
// suppressed, as are double-close artifacts on any path.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, c := range s.conns {
		if c == nil {
			continue
		}
		err := c.Close()
		if err == nil || s.broken || errors.Is(err, net.ErrClosed) {
			continue
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// workerResult is one machine's outcome: its decoded summary plus the
// measured wire traffic in both directions, or the error that ended it.
type workerResult struct {
	machine int
	sum     stream.Summary
	wire    int          // measured CORESET frame bytes (worker -> coordinator)
	sent    int          // measured HELLO+SHARD+EOS bytes (coordinator -> worker)
	telem   *workerTelem // decoded TELEM payload; nil when the worker omitted it
	err     error
}

// readAck consumes the worker's handshake reply — an ACK, or the ERROR
// frame it substituted — under the per-frame deadline, and classifies the
// failure: transport errors are retryable kinds, a rejection or unexpected
// frame is KindHandshake (replaying would fail identically).
func readAck(conn net.Conn, iot time.Duration) (FailureKind, error) {
	typ, payload, _, err := readFrameDeadline(conn, iot)
	if err != nil {
		return ioKind(err), fmt.Errorf("handshake: %w", err)
	}
	switch typ {
	case frameAck:
		return KindUnknown, nil
	case frameError:
		return KindHandshake, fmt.Errorf("remote: %s", payload)
	default:
		return KindHandshake, fmt.Errorf("handshake: unexpected frame 0x%02x", typ)
	}
}

// roundTrip speaks the post-handshake frames of one round on an open
// connection: SHARD frames off the batch channel (with TCP backpressure),
// then — once the sharder publishes the final vertex count through the
// nReady edge — finishRound's EOS and CORESET. Failures go through fail,
// which wraps them as *WorkerError with their FailureKind and records
// causal order. On a shard-stream failure the caller's deferred drain
// consumes the remaining batches.
func roundTrip(runCtx context.Context, conn net.Conn, d *task.Descriptor, iot time.Duration, batches <-chan []graph.Edge, nReady <-chan struct{}, nFinal *int, res *workerResult, fail func(FailureKind, error), sink obs.Sink) {
	var buf []byte
	for batch := range batches {
		buf = graph.AppendEdgeBatch(buf[:0], batch)
		n, err := writeFrameDeadline(conn, iot, frameShard, buf)
		res.sent += n
		countSent(sink, res.machine, n, err)
		if err != nil {
			fail(ioKind(err), fmt.Errorf("shard stream: %w", err))
			return
		}
	}
	select {
	case <-nReady:
	case <-runCtx.Done():
		res.err = runCtx.Err()
		return
	}
	if kind, err := finishRound(conn, iot, d, *nFinal, res, sink); err != nil {
		fail(kind, err)
	}
}

// finishRound ends one machine's round on conn: EOS with the final vertex
// count, then the worker's answer — an optional TELEM frame, then the
// CORESET, decoded with d's codec into res. The round fan-out and the
// replay waves share it. Every frame exchange runs under the per-frame
// IOTimeout, so a stalled worker surfaces as a retryable KindDeadline
// failure rather than a hang; a corrupt or unexpected frame, or a CORESET
// naming a vertex id outside [0, nFinal), is KindProtocol.
func finishRound(conn net.Conn, iot time.Duration, d *task.Descriptor, nFinal int, res *workerResult, sink obs.Sink) (FailureKind, error) {
	n, err := writeFrameDeadline(conn, iot, frameEOS, binary.AppendUvarint(nil, uint64(nFinal)))
	res.sent += n
	countSent(sink, res.machine, n, err)
	if err != nil {
		return ioKind(err), fmt.Errorf("EOS: %w", err)
	}
	typ, payload, frameLen, err := readFrameDeadline(conn, iot)
	if err != nil {
		return ioKind(err), fmt.Errorf("awaiting CORESET: %w", err)
	}
	// A telemetry-capable worker answers EOS with TELEM then CORESET; an old
	// worker sends a bare CORESET and the machine's phase telemetry stays
	// zero. A corrupt TELEM is KindProtocol, like any corrupt frame: a peer
	// that garbles telemetry cannot be trusted about the coreset either.
	if typ == frameTelem {
		t, err := decodeTelem(payload)
		if err != nil {
			return KindProtocol, err
		}
		res.telem = &t
		countTelem(sink, res.machine, frameLen)
		if typ, payload, frameLen, err = readFrameDeadline(conn, iot); err != nil {
			return ioKind(err), fmt.Errorf("awaiting CORESET: %w", err)
		}
	}
	switch typ {
	case frameCoreset:
		sum, err := task.DecodeSummary(d, payload)
		if err == nil {
			err = sum.CheckIDs(nFinal)
		}
		if err != nil {
			return KindProtocol, err
		}
		res.sum, res.wire = sum, frameLen
		countReceived(sink, res.machine, frameLen)
		return KindUnknown, nil
	case frameError:
		return KindProtocol, fmt.Errorf("remote: %s", payload)
	default:
		return KindProtocol, fmt.Errorf("unexpected frame 0x%02x, want CORESET", typ)
	}
}

// countSent reports one coordinator-to-worker frame write to the sink, under
// the writing machine's label: the bytes that made it onto the wire always
// count, the frame only when the write fully succeeded.
func countSent(sink obs.Sink, machine, n int, err error) {
	if sink == nil {
		return
	}
	lbl := strconv.Itoa(machine)
	obs.CountBy(sink, MetricShardBytes, "machine", lbl, int64(n))
	if err == nil {
		obs.CountBy(sink, MetricFramesSent, "machine", lbl, 1)
	}
}

// countReceived reports one CORESET frame read off a worker connection.
func countReceived(sink obs.Sink, machine, frameLen int) {
	if sink == nil {
		return
	}
	lbl := strconv.Itoa(machine)
	obs.CountBy(sink, MetricFramesReceived, "machine", lbl, 1)
	obs.CountBy(sink, MetricCoresetBytes, "machine", lbl, int64(frameLen))
}

// countTelem reports one TELEM frame read off a worker connection. Its bytes
// land in their own metric, never in the coreset communication accounting.
func countTelem(sink obs.Sink, machine, frameLen int) {
	if sink == nil {
		return
	}
	lbl := strconv.Itoa(machine)
	obs.CountBy(sink, MetricFramesReceived, "machine", lbl, 1)
	obs.CountBy(sink, MetricTelemBytes, "machine", lbl, int64(frameLen))
}

// shardSource reads src to exhaustion and routes every edge to the
// per-machine channels with partition.HashAssign(e, len(chans), seed),
// flushing mini-batches of bs edges as they fill. Sends block on a
// machine's channel but never past cancellation. Returns the edge and batch
// totals, a real source error (never a cancellation), and whether the loop
// aborted on runCtx. The caller owns closing the channels.
func shardSource(runCtx context.Context, src stream.EdgeSource, chans []chan []graph.Edge, bs int, seed uint64) (total, batches int, srcErr error, aborted bool) {
	k := len(chans)
	buf := make([]graph.Edge, bs)
	pending := make([][]graph.Edge, k)
	send := func(i int) bool {
		select {
		case chans[i] <- pending[i]:
			pending[i] = nil
			return true
		case <-runCtx.Done():
			return false
		}
	}
shard:
	for {
		if runCtx.Err() != nil {
			aborted = true
			break
		}
		c, err := src.Next(buf)
		if c > 0 {
			total += c
			batches++
			for _, e := range buf[:c] {
				i := partition.HashAssign(e, k, seed)
				if pending[i] == nil {
					pending[i] = make([]graph.Edge, 0, bs)
				}
				pending[i] = append(pending[i], e)
				if len(pending[i]) == bs && !send(i) {
					aborted = true
					break shard
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				srcErr = err
			}
			break
		}
	}
	if srcErr == nil && !aborted {
		for i, p := range pending {
			if len(p) > 0 && !send(i) {
				aborted = true
				break
			}
		}
	}
	return total, batches, srcErr, aborted
}

// closeOnCancel force-closes conn when ctx is canceled; the returned stop
// function ends the watch (idempotently) once the connection is done.
//
// The done recheck inside the cancellation case matters for connections
// that outlive the watch (a Session reuses its connections across rounds):
// on a successful round, stop() runs strictly before the round's deferred
// cancel, but a watcher that first wakes with BOTH channels ready would pick
// a select case at random — and must not close a connection the next round
// is about to use.
func closeOnCancel(ctx context.Context, conn net.Conn) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			select {
			case <-done:
				// The conversation finished before the cancellation; leave
				// the connection alone.
			default:
				conn.Close()
			}
		case <-done:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
