//go:build unix

package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"ltnc/transport"
)

// Session frame kind bytes (internal/session's wire protocol, first byte of
// every transport frame). The benchmark reads them from outside to tell
// DATA from control traffic.
const (
	kindData   = 0x01
	kindMember = 0x06
)

func isData(frame []byte) bool { return len(frame) > 0 && frame[0] == kindData }

// lossyTransport drops a seeded share of outgoing DATA frames at egress,
// standing in for a lossy link on loopback. Control frames (REQ, META,
// FEEDBACK, MANIFEST, MEMBER) always pass: the workload measures coding
// under data loss, not protocol recovery from lost control frames. One coin
// is drawn per DATA frame in send order, so the same seed and frame
// sequence drop the same frames. It keeps the batch fast paths of the
// wrapped transport, so the session's send and receive paths are the ones
// an unwrapped UDPTransport would get.
type lossyTransport struct {
	transport.Transport
	rate float64
	mu   sync.Mutex
	rng  *rand.Rand
}

func newLossy(inner transport.Transport, rate float64, seed uint64) *lossyTransport {
	return &lossyTransport{Transport: inner, rate: rate, rng: rand.New(rand.NewPCG(seed, 0x10557))}
}

// drop draws the coin for one frame; non-DATA frames draw nothing.
func (l *lossyTransport) drop(frame []byte) bool {
	if !isData(frame) {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64() < l.rate
}

func (l *lossyTransport) Send(to transport.Addr, frame []byte) error {
	if l.drop(frame) {
		return nil
	}
	return l.Transport.Send(to, frame)
}

// SendBatch filters the batch and hands the survivors to the wrapped
// transport's batch path. Dropped frames count as handed to the network,
// as a lossy link would report them.
func (l *lossyTransport) SendBatch(to transport.Addr, frames [][]byte) (int, error) {
	kept := make([][]byte, 0, len(frames))
	pos := make([]int, 0, len(frames))
	for i, f := range frames {
		if !l.drop(f) {
			kept = append(kept, f)
			pos = append(pos, i)
		}
	}
	if len(kept) == 0 {
		return len(frames), nil
	}
	n, err := transport.SendBatch(l.Transport, to, kept)
	if err != nil {
		return pos[n], err
	}
	return len(frames), nil
}

func (l *lossyTransport) RecvBatch(ctx context.Context, out []transport.Frame) (int, error) {
	return transport.RecvBatch(ctx, l.Transport, out)
}

// tracedTransport counts calls, frames and frame kinds at the transport
// boundary, times the send path, records a span per send or receive call
// and copies inbound DATA frames for the offline layer replays. Like
// lossyTransport it implements BatchSender and BatchRecver; without them
// the session would silently take the per-frame path.
type tracedTransport struct {
	inner transport.Transport
	node  string
	tr    *tracer

	sendCalls, sendFrames, sendBusyNs atomic.Int64
	recvCalls, recvFrames             atomic.Int64
	sentKind, recvKind                [8]atomic.Int64 // index: kind byte, 0 for unknown kinds
	sentBytes, sentDataBytes          atomic.Int64

	capMu   sync.Mutex
	capture [][]byte // inbound DATA frames (session kind byte included)
	capMax  int
}

func newTraced(inner transport.Transport, node string, tr *tracer, capMax int) *tracedTransport {
	return &tracedTransport{inner: inner, node: node, tr: tr, capMax: capMax}
}

func kindIndex(frame []byte) int {
	if len(frame) == 0 || int(frame[0]) >= 8 {
		return 0
	}
	return int(frame[0])
}

func (t *tracedTransport) LocalAddr() transport.Addr { return t.inner.LocalAddr() }
func (t *tracedTransport) Close() error              { return t.inner.Close() }

func (t *tracedTransport) Send(to transport.Addr, frame []byte) error {
	start := time.Now()
	err := t.inner.Send(to, frame)
	t.noteSend(start, [][]byte{frame}, 1)
	return err
}

func (t *tracedTransport) SendBatch(to transport.Addr, frames [][]byte) (int, error) {
	start := time.Now()
	n, err := transport.SendBatch(t.inner, to, frames)
	t.noteSend(start, frames, n)
	return n, err
}

func (t *tracedTransport) noteSend(start time.Time, frames [][]byte, n int) {
	end := time.Now()
	t.sendCalls.Add(1)
	t.sendFrames.Add(int64(n))
	t.sendBusyNs.Add(int64(end.Sub(start)))
	for _, f := range frames[:n] {
		t.sentKind[kindIndex(f)].Add(1)
		t.sentBytes.Add(int64(len(f)))
		if isData(f) {
			t.sentDataBytes.Add(int64(len(f)))
		}
	}
	t.tr.transportSpan("transport.send", t.node, frames, start, end)
}

func (t *tracedTransport) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := t.inner.Recv(ctx)
	if err == nil {
		t.noteRecv([]transport.Frame{f})
	}
	return f, err
}

func (t *tracedTransport) RecvBatch(ctx context.Context, out []transport.Frame) (int, error) {
	n, err := transport.RecvBatch(ctx, t.inner, out)
	if n > 0 {
		t.noteRecv(out[:n])
	}
	return n, err
}

// noteRecv counts one receive call. Its span covers only the bookkeeping
// after the frames arrived: the blocking wait inside Recv is idle time,
// not transport work.
func (t *tracedTransport) noteRecv(frames []transport.Frame) {
	start := time.Now()
	t.recvCalls.Add(1)
	t.recvFrames.Add(int64(len(frames)))
	datas := make([][]byte, len(frames))
	for i, f := range frames {
		datas[i] = f.Data
		t.recvKind[kindIndex(f.Data)].Add(1)
		if isData(f.Data) {
			t.capMu.Lock()
			if len(t.capture) < t.capMax {
				t.capture = append(t.capture, append([]byte(nil), f.Data...))
			}
			t.capMu.Unlock()
		}
	}
	t.tr.transportSpan("transport.recv", t.node, datas, start, time.Now())
}

func (t *tracedTransport) captured() [][]byte {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	return t.capture
}

// tracedClock wraps the system clock to observe the session's tickers: it
// counts each tick the session actually consumes and how late that was
// against the tick's scheduled time. Since Go 1.23 a ticker's channel
// carries the scheduled instant, so lag = handoff time − value.
type tracedClock struct {
	transport.Clock
	mu    sync.Mutex
	ticks map[time.Duration]*tickStats // by ticker period
}

type tickStats struct {
	n      int64
	lagsMs []float64
}

func newTracedClock() *tracedClock {
	return &tracedClock{Clock: transport.SystemClock(), ticks: map[time.Duration]*tickStats{}}
}

func (c *tracedClock) NewTicker(d time.Duration) transport.Ticker {
	inner := c.Clock.NewTicker(d)
	tk := &tracedTicker{inner: inner, out: make(chan time.Time), stop: make(chan struct{}), done: make(chan struct{})}
	go tk.forward(func(lag time.Duration) {
		c.mu.Lock()
		ts := c.ticks[d]
		if ts == nil {
			ts = &tickStats{}
			c.ticks[d] = ts
		}
		ts.n++
		ts.lagsMs = append(ts.lagsMs, float64(lag)/1e6)
		c.mu.Unlock()
	})
	return tk
}

// pushTicks returns the stats of the shortest-period ticker: the session's
// push loop (its other ticker is the 250ms fetch resend).
func (c *tracedClock) pushTicks() tickStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best time.Duration
	for d := range c.ticks {
		if best == 0 || d < best {
			best = d
		}
	}
	if best == 0 {
		return tickStats{}
	}
	ts := c.ticks[best]
	return tickStats{n: ts.n, lagsMs: append([]float64(nil), ts.lagsMs...)}
}

type tracedTicker struct {
	inner transport.Ticker
	out   chan time.Time // unbuffered: a send completes when the session takes the tick
	stop  chan struct{}
	once  sync.Once
	done  chan struct{}
}

func (t *tracedTicker) C() <-chan time.Time { return t.out }

// Stop ends the ticker and waits for its forwarding goroutine to exit.
func (t *tracedTicker) Stop() {
	t.once.Do(func() {
		t.inner.Stop()
		close(t.stop)
	})
	<-t.done
}

func (t *tracedTicker) forward(note func(time.Duration)) {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case sched := <-t.inner.C():
			select {
			case <-t.stop:
				return
			case t.out <- sched:
				note(time.Since(sched))
			}
		}
	}
}
