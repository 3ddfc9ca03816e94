package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stream"
)

// Round replay. When a worker fails retryably mid-round, the coordinator
// does not abort: the round's input is either coordinator state (the union,
// rounds >= 1 of the MPC driver) or a restartable source, and sharding is a
// seeded hash — so any machine's shard can be regenerated deterministically
// and replayed against a fresh connection. The replayed machine produces
// bit-identical coresets (partition.HashAssign routes the identical edge
// sequence; batch granularity does not affect machine results), which is
// what keeps a disturbed run deep-equal to an undisturbed one.
//
// The replayer runs after the round's normal fan-out has finished: the
// healthy machines' results are in hand, the final vertex count is known,
// and only the failed machines are re-run. Replays proceed in waves — each
// wave re-dials every still-failed machine (rotating in a spare address
// after a failed replay attempt), re-handshakes, restarts the source once
// and re-shards it routing edges only to the machines being replayed, then
// collects their CORESET frames. Waves repeat under capped exponential
// backoff until every machine recovered or some machine spends its
// MaxRetries budget, which fails the run with a terminal, non-retryable
// ErrRetriesExhausted WorkerError.

// ioKind classifies a transport error: deadline expiries are KindDeadline
// (a stalled peer), everything else that broke a live connection is
// KindConn.
func ioKind(err error) FailureKind {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return KindDeadline
	}
	return KindConn
}

// joinFailures folds concurrent worker failures into one error: the
// causally-first failure leads (so errors.As finds the primary), and real
// secondary failures ride along via errors.Join. Secondaries induced by the
// coordinator's own teardown — force-closed connections, canceled dials —
// are dropped: they are consequences of the primary, not causes, and
// keeping them would leak context.Canceled into errors.Is checks.
func joinFailures(fails []*WorkerError) error {
	if len(fails) == 0 {
		return nil
	}
	errs := []error{fails[0]}
	for _, we := range fails[1:] {
		if errors.Is(we.Err, net.ErrClosed) || errors.Is(we.Err, context.Canceled) {
			continue
		}
		errs = append(errs, we)
	}
	if len(errs) == 1 {
		return errs[0]
	}
	return errors.Join(errs...)
}

// notRestartable annotates a joined worker failure with a typed
// *stream.NotRestartableError naming the concrete source kind. It is used on
// fail-fast paths where replay was configured (MaxRetries > 0) and every
// failure was retryable, yet the run could not replay because the source
// cannot rewind — so the error says which input to fix instead of a generic
// failure. The worker failure stays first, so errors.As finds the primary
// *WorkerError exactly as before.
func notRestartable(failErr error, src stream.EdgeSource) error {
	return errors.Join(failErr, &stream.NotRestartableError{Source: fmt.Sprintf("%T", src)})
}

// allRetryable reports whether every recorded failure may be replayed.
func allRetryable(fails []*WorkerError) bool {
	for _, we := range fails {
		if !we.Retryable {
			return false
		}
	}
	return true
}

// replayer re-runs the current round of its session for the machines that
// failed it. It retires each failed machine's broken connection before the
// first replay attempt and hands a successful replacement back to the
// session, which keeps it for the rounds that follow (or closes it at Close
// after a single-round run).
type replayer struct {
	s      *Session
	seed   uint64 // this round's sharding seed
	k      int    // active machine count this round (the hash modulus)
	nFinal int    // final vertex count, known from the completed shard pass
}

// replayConn is one machine's live replay attempt within a wave.
type replayConn struct {
	conn net.Conn
	res  workerResult // this attempt's summary, wire bytes and telemetry
}

// replay drives replay waves until failed is empty or a budget runs out.
// Successful machines overwrite their slot in byMachine (accumulating the
// sent-byte accounting of the failed attempt, so ShardBytes stays honest).
// It returns the number of replay attempts made and the machines recovered,
// in ascending order.
func (r *replayer) replay(ctx context.Context, src stream.EdgeSource, byMachine []workerResult, failed map[int]*WorkerError) (retries int, replayed []int, err error) {
	rs, ok := src.(stream.Restartable)
	if !ok { // callers gate on this; defensive
		return 0, nil, notRestartable(joinFailures(sortedFailures(failed)), src)
	}
	s := r.s
	attempts := make(map[int]int)
	backoff := s.cfg.backoffBase()

	terminal := func(primary *WorkerError, active map[int]*replayConn) error {
		for _, rc := range active {
			rc.conn.Close()
		}
		fails := []*WorkerError{primary}
		for _, we := range sortedFailures(failed) {
			if we.Machine != primary.Machine {
				fails = append(fails, we)
			}
		}
		return joinFailures(fails)
	}

	for len(failed) > 0 {
		// Budget check: the lowest exhausted machine turns terminal.
		for _, we := range sortedFailures(failed) {
			m := we.Machine
			if attempts[m] >= s.cfg.MaxRetries {
				exh := &WorkerError{
					Machine: m, Addr: s.addrs[m], Kind: we.Kind, Retryable: false,
					Err: fmt.Errorf("%w: %d replay attempts: %w", ErrRetriesExhausted, attempts[m], we.Err),
				}
				return retries, replayed, terminal(exh, nil)
			}
		}
		obs.Count(s.cfg.Obs, MetricBackoffSleeps, 1)
		if err := sleepCtx(ctx, backoff); err != nil {
			return retries, replayed, err
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}

		// Re-dial and re-handshake every still-failed machine. A machine
		// whose previous replay attempt failed rotates to a spare address
		// when one remains; the first replay attempt tries the machine's
		// own address (a crashed-and-restarted worker is the common case).
		active := make(map[int]*replayConn)
		for _, we := range sortedFailures(failed) {
			m := we.Machine
			if err := ctx.Err(); err != nil {
				for _, rc := range active {
					rc.conn.Close()
				}
				return retries, replayed, err
			}
			if attempts[m] > 0 && len(s.spares) > 0 {
				s.addrs[m], s.spares = s.spares[0], s.spares[1:]
			}
			attempts[m]++
			retries++
			obs.Count(s.cfg.Obs, MetricRetries, 1)
			// Retire the broken connection; a failed machine only holds one
			// until its first replay attempt (replacements are handed back
			// to the session only once they succeed).
			if c := s.conns[m]; c != nil {
				c.Close()
				s.conns[m] = nil
			}
			conn, sent, hswe := s.handshake(ctx, m)
			if hswe != nil {
				hswe.Err = fmt.Errorf("replay: %w", hswe.Err)
				failed[m] = hswe
				if !hswe.Retryable {
					return retries, replayed, terminal(hswe, active)
				}
				continue
			}
			active[m] = &replayConn{conn: conn, res: workerResult{machine: m, sent: sent}}
		}
		if len(active) == 0 {
			continue // every dial failed; back off and try the next wave
		}

		// One deterministic re-scan of the round input, routing edges only
		// to the machines being replayed this wave.
		if err := rs.Restart(); err != nil {
			we := sortedFailures(failed)[0]
			return retries, replayed, terminal(&WorkerError{
				Machine: we.Machine, Addr: s.addrs[we.Machine], Kind: we.Kind, Retryable: false,
				Err: fmt.Errorf("replay needs a restartable source (%v): %w", err, we.Err),
			}, active)
		}
		if err := r.shardTo(ctx, src, active, failed); err != nil {
			return retries, replayed, err // ctx or source error; conns closed
		}

		// EOS, then the replayed CORESETs.
		for _, m := range sortedConns(active) {
			rc := active[m]
			if kind, err := finishRound(rc.conn, s.cfg.ioTimeout(), s.d, r.nFinal, &rc.res, s.cfg.Obs); err != nil {
				rc.conn.Close()
				delete(active, m)
				we := &WorkerError{Machine: m, Addr: s.addrs[m], Kind: kind, Retryable: kind.retryable(), Err: fmt.Errorf("replay: %w", err)}
				failed[m] = we
				if !we.Retryable {
					return retries, replayed, terminal(we, active)
				}
				continue
			}
			// Telemetry describes the replacement attempt only: the failed
			// attempt's partial phases never mix in. Sent bytes accumulate
			// (ShardBytes stays honest about every byte actually sent).
			rc.res.sent += byMachine[m].sent
			byMachine[m] = rc.res
			delete(failed, m)
			delete(active, m)
			replayed = append(replayed, m)
			obs.Count(s.cfg.Obs, MetricReplays, 1)
			s.conns[m] = rc.conn
		}
	}
	sort.Ints(replayed)
	return retries, replayed, nil
}

// shardTo re-streams the restarted source, routing each edge with the same
// seeded hash as the original pass and sending only to the active replay
// connections. A send failure returns that machine to the failed set for
// the next wave; a source or context error is fatal and closes every active
// connection.
func (r *replayer) shardTo(ctx context.Context, src stream.EdgeSource, active map[int]*replayConn, failed map[int]*WorkerError) error {
	closeAll := func() {
		for _, rc := range active {
			rc.conn.Close()
		}
	}
	cfg := r.s.cfg
	iot := cfg.ioTimeout()
	bs := cfg.batchSize()
	buf := make([]graph.Edge, bs)
	pending := make(map[int][]graph.Edge, len(active))
	var enc []byte
	flush := func(m int) {
		rc := active[m]
		if rc == nil || len(pending[m]) == 0 {
			return
		}
		enc = graph.AppendEdgeBatch(enc[:0], pending[m])
		pending[m] = pending[m][:0]
		n, err := writeFrameDeadline(rc.conn, iot, frameShard, enc)
		rc.res.sent += n
		countSent(cfg.Obs, m, n, err)
		if err != nil {
			rc.conn.Close()
			delete(active, m)
			failed[m] = &WorkerError{Machine: m, Addr: r.s.addrs[m], Kind: ioKind(err), Retryable: true, Err: fmt.Errorf("replay shard stream: %w", err)}
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			closeAll()
			return err
		}
		c, err := src.Next(buf)
		for _, e := range buf[:c] {
			m := partition.HashAssign(e, r.k, r.seed)
			if active[m] == nil {
				continue
			}
			pending[m] = append(pending[m], e)
			if len(pending[m]) == bs {
				flush(m)
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				closeAll()
				return err
			}
			break
		}
		if len(active) == 0 {
			// Everyone died again mid-replay; drain to EOF is pointless.
			return nil
		}
	}
	for _, m := range sortedConns(active) {
		flush(m)
	}
	return nil
}

// sortedFailures returns failed's errors in ascending machine order, so
// wave iteration and primary selection are deterministic.
func sortedFailures(failed map[int]*WorkerError) []*WorkerError {
	out := make([]*WorkerError, 0, len(failed))
	for _, we := range failed {
		out = append(out, we)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

func sortedConns(active map[int]*replayConn) []int {
	out := make([]int, 0, len(active))
	for m := range active {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// sleepCtx waits d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
