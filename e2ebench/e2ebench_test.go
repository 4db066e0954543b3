//go:build unix

package main

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"ltnc/transport"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // 91..100 lie beyond
		{99, 0.90, 90, false}, // only 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.90, 1, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile(nil) = %v, %v", v, ok)
	}
}

// fakeTransport records what reaches it and which path it came through.
type fakeTransport struct {
	mu                     sync.Mutex
	sent                   [][]byte
	sendCalls, batchCalls  int
	recvCalls, rbatchCalls int
}

func (f *fakeTransport) LocalAddr() transport.Addr { return "fake" }
func (f *fakeTransport) Close() error              { return nil }

func (f *fakeTransport) Send(_ transport.Addr, frame []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sendCalls++
	f.sent = append(f.sent, slices.Clone(frame))
	return nil
}

func (f *fakeTransport) SendBatch(_ transport.Addr, frames [][]byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batchCalls++
	for _, fr := range frames {
		f.sent = append(f.sent, slices.Clone(fr))
	}
	return len(frames), nil
}

func (f *fakeTransport) Recv(context.Context) (transport.Frame, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recvCalls++
	return transport.NewFrame("peer", []byte{kindData, 0}, nil), nil
}

func (f *fakeTransport) RecvBatch(_ context.Context, out []transport.Frame) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rbatchCalls++
	n := min(len(out), 3)
	for i := range n {
		out[i] = transport.NewFrame("peer", []byte{kindData, byte(i)}, nil)
	}
	return n, nil
}

// frames returns a fixed mix of DATA and control frames, each unique.
func frames() [][]byte {
	var out [][]byte
	for i := 0; i < 400; i++ {
		kind := byte(kindData)
		if i%5 == 0 {
			kind = byte(2 + (i/5)%5) // REQ..MEMBER
		}
		out = append(out, []byte{kind, byte(i), byte(i >> 8)})
	}
	return out
}

func sendThrough(l *lossyTransport) {
	fs := frames()
	for i := 0; i < len(fs); i += 40 {
		if i%80 == 0 {
			for _, f := range fs[i : i+40] {
				_ = l.Send("peer", f)
			}
			continue
		}
		_, _ = l.SendBatch("peer", fs[i:i+40])
	}
}

func TestLossyDropsSameFramesForSameSeed(t *testing.T) {
	run := func(seed uint64) [][]byte {
		f := &fakeTransport{}
		sendThrough(newLossy(f, 0.3, seed))
		return f.sent
	}
	a, b := run(7), run(7)
	if !slices.EqualFunc(a, b, slices.Equal) {
		t.Fatal("same seed and frame sequence delivered different frames")
	}
	if c := run(8); slices.EqualFunc(a, c, slices.Equal) {
		t.Error("a different seed dropped exactly the same frames")
	}
	data, control := 0, 0
	for _, f := range a {
		if isData(f) {
			data++
		} else {
			control++
		}
	}
	if control != 80 {
		t.Errorf("%d of 80 control frames passed; all must", control)
	}
	if data < 180 || data > 270 { // 320 DATA frames at 30% loss
		t.Errorf("%d of 320 DATA frames passed at 30%% loss", data)
	}
}

func TestWrappersKeepBatchPaths(t *testing.T) {
	var (
		_ transport.BatchSender = (*lossyTransport)(nil)
		_ transport.BatchRecver = (*lossyTransport)(nil)
		_ transport.BatchSender = (*tracedTransport)(nil)
		_ transport.BatchRecver = (*tracedTransport)(nil)
	)
	f := &fakeTransport{}
	tt := newTraced(f, "n", newTracer(), 10)
	var w transport.Transport = newLossy(tt, 0.1, 1)
	if _, err := transport.SendBatch(w, "peer", frames()[:32]); err != nil {
		t.Fatal(err)
	}
	out := make([]transport.Frame, 8)
	n, err := transport.RecvBatch(context.Background(), w, out)
	if err != nil || n != 3 {
		t.Fatalf("RecvBatch = %d, %v; want 3 frames", n, err)
	}
	if f.batchCalls != 1 || f.sendCalls != 0 || f.rbatchCalls != 1 || f.recvCalls != 0 {
		t.Errorf("wrapped transport took the per-frame path: %+v", f)
	}
	if got := tt.recvFrames.Load(); got != 3 {
		t.Errorf("traced transport counted %d received frames, want 3", got)
	}
	if got := len(tt.captured()); got != 3 {
		t.Errorf("traced transport captured %d DATA frames, want 3", got)
	}
}

func TestTracedTickerCountsConsumedTicks(t *testing.T) {
	c := newTracedClock()
	tk := c.NewTicker(time.Millisecond)
	for i := 0; i < 3; i++ {
		<-tk.C()
	}
	tk.Stop() // returns only once the forwarding goroutine has exited
	if ts := c.pushTicks(); ts.n != 3 || len(ts.lagsMs) != 3 {
		t.Errorf("counted %d ticks with %d lags, want 3", ts.n, len(ts.lagsMs))
	}
}
