//go:build unix

package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ltnc/swarm"
	"ltnc/transport"
)

// workload is one closed-loop traffic mix on 127.0.0.1 UDP. Every round
// builds a fresh swarm, serves fresh content and has every fetcher fetch
// every object of the round concurrently; the next round starts only when
// all fetches of this one have returned.
type workload struct {
	name      string
	objects   int // objects per round
	size      int // bytes per object
	k         int // natives per object (G is picked by swarm from k)
	fetchers  int // fetcher sessions, at most nproc
	relay     bool
	loss      float64 // DATA loss on each hop's egress
	bootstrap bool    // fetchers join through Bootstrap and fetch with no explicit source
	timeout   time.Duration
}

var workloads = []workload{
	{name: "bulk-udp", objects: 1, size: 8 << 20, k: 8192, fetchers: 1, timeout: 120 * time.Second},
	{name: "relay-lossy", objects: 4, size: 1 << 20, k: 1024, fetchers: 1, relay: true, loss: 0.10, timeout: 90 * time.Second},
	{name: "catalog-fanout", objects: 12, size: 1 << 20, k: 1024, fetchers: 2, bootstrap: true, timeout: 90 * time.Second},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive mixes the workload seed with a round index and a role index into
// an independent 64-bit value (SplitMix64 finalizer), never zero: a zero
// session Seed would make swarm draw entropy.
func derive(seed uint64, round, role int) uint64 {
	z := seed ^ uint64(round+1)*0x9e3779b97f4a7c15 ^ uint64(role+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// contents generates the round's objects from the workload seed.
func contents(w workload, seed uint64, round int) [][]byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], derive(seed, round, 100))
	binary.LittleEndian.PutUint64(key[8:], seed)
	rng := rand.NewChaCha8(key)
	out := make([][]byte, w.objects)
	for i := range out {
		out[i] = make([]byte, w.size)
		_, _ = rng.Read(out[i]) // ChaCha8.Read never fails
	}
	return out
}

type node struct {
	name   string
	role   string // source, relay or fetch
	udp    *transport.UDPTransport
	traced *tracedTransport // nil in untraced rounds
	clock  *tracedClock     // nil in untraced rounds
	s      *swarm.Session
	runAt  time.Time
	done   chan struct{}
}

// swarmRound is one round's running swarm.
type swarmRound struct {
	w        workload
	nodes    []*node
	source   *node
	relay    *node
	fetchers []*node
	content  [][]byte
	ids      []swarm.ObjectID
	cancel   context.CancelFunc
}

// setup builds the round's sessions and serves its content: every
// swarm.New, every Run launch and every Serve. It is the span setup_s
// times. tr is nil for an untraced round.
func setup(w workload, seed uint64, round int, content [][]byte, tr *tracer) (*swarmRound, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &swarmRound{w: w, content: content, cancel: cancel}
	mk := func(name, role string, cfg swarm.Config) (*node, error) {
		idx := len(r.nodes)
		udp, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("%s: listen: %w", name, err)
		}
		n := &node{name: name, role: role, udp: udp, done: make(chan struct{})}
		var t transport.Transport = udp
		if tr != nil {
			capMax := 0 // the replays read fetcher 0's and the relay's inbound DATA
			if name == "fetch0" || role == "relay" {
				capMax = captureMax
			}
			n.traced = newTraced(udp, name, tr, capMax)
			n.clock = newTracedClock()
			t = n.traced
			cfg.Clock = n.clock
		}
		if w.loss > 0 && role != "fetch" {
			t = newLossy(t, w.loss, derive(seed, round, 50+idx))
		}
		cfg.Transport = t
		cfg.Seed = int64(derive(seed, round, idx)>>1) | 1
		s, err := swarm.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		n.s = s
		n.runAt = time.Now()
		go func() {
			defer close(n.done)
			_ = s.Run(ctx) // returns nil on cancellation; a failure shows as failed fetches
		}()
		r.nodes = append(r.nodes, n)
		return n, nil
	}
	fail := func(err error) (*swarmRound, error) {
		r.teardown()
		return nil, err
	}

	var upstream swarm.Addr
	if w.relay {
		relay, err := mk("relay", "relay", swarm.Config{Relay: true})
		if err != nil {
			return fail(err)
		}
		r.relay = relay
		src, err := mk("source", "source", swarm.Config{Peers: []swarm.Addr{relay.s.LocalAddr()}})
		if err != nil {
			return fail(err)
		}
		r.source = src
		upstream = relay.s.LocalAddr()
	} else {
		src, err := mk("source", "source", swarm.Config{})
		if err != nil {
			return fail(err)
		}
		r.source = src
		upstream = src.s.LocalAddr()
	}
	for i := 0; i < w.fetchers; i++ {
		cfg := swarm.Config{Peers: []swarm.Addr{upstream}}
		if w.bootstrap {
			cfg = swarm.Config{Bootstrap: []swarm.Addr{upstream}}
		}
		f, err := mk(fmt.Sprintf("fetch%d", i), "fetch", cfg)
		if err != nil {
			return fail(err)
		}
		r.fetchers = append(r.fetchers, f)
	}
	for _, c := range content {
		id, err := r.source.s.Serve(c, w.k)
		if err != nil {
			return fail(fmt.Errorf("serve: %w", err))
		}
		r.ids = append(r.ids, id)
	}
	return r, nil
}

// teardown stops every session and waits until each Run has returned.
func (r *swarmRound) teardown() {
	r.cancel()
	for _, n := range r.nodes {
		_ = n.s.Close() // the round is over; a close error changes nothing
		<-n.done
	}
}

type fetchResult struct {
	fetcher, object int
	ms              float64
	ok              bool // completed and byte-identical
	mismatch        bool // completed with wrong bytes
	report          swarm.FetchReport
}

type roundResult struct {
	setup   time.Duration
	wall    time.Duration // fetch phase: first Fetch call to last return
	cpu     time.Duration // process user+sys CPU over the fetch phase
	bytes   int64         // verified content bytes
	rows    int64         // native rows delivered: k per completed fetch
	sent    int64         // DATA frames sent by source and relay for the round's objects
	fetches []fetchResult
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return ru.Maxrss // bytes there, kilobytes elsewhere
	}
	return ru.Maxrss * 1024
}

// runRound performs one closed-loop round: set-up, concurrent fetches,
// byte comparison, teardown. With tr non-nil the round is traced and
// leaves its observations in obs.
func runRound(w workload, seed uint64, round int, tr *tracer, obs *roundObs) (roundResult, error) {
	r, d, err := timedSetup(w, seed, round, tr)
	if err != nil {
		return roundResult{}, err
	}
	res := roundResult{setup: d}
	defer r.teardown()
	content := r.content
	if obs != nil {
		obs.begin(r)
	}

	results := make([]fetchResult, 0, len(r.fetchers)*len(r.ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for fi, f := range r.fetchers {
		for oi, id := range r.ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), w.timeout)
				defer cancel()
				var watch *fetchWatch
				if obs != nil {
					watch = obs.watch(f, id)
				}
				fr := fetchResult{fetcher: fi, object: oi}
				t0 := time.Now()
				span := tr.beginFetch(f.name, id)
				data, rep, err := f.s.Fetch(ctx, id)
				if err == nil && !bytes.Equal(data, content[oi]) {
					fr.mismatch = true
				}
				fr.ms = float64(time.Since(t0)) / 1e6
				tr.end(span)
				fr.ok = err == nil && !fr.mismatch
				fr.report = rep
				if !fr.ok {
					fmt.Fprintf(os.Stderr, "e2ebench: round %d: %s fetch of object %d failed: err=%v mismatch=%v\n",
						round, f.name, oi, err, fr.mismatch)
				}
				if watch != nil {
					watch.stop(rep, fr.ok)
				}
				mu.Lock()
				results = append(results, fr)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.fetches = results
	for _, fr := range results {
		if fr.ok {
			res.bytes += int64(len(content[fr.object]))
			res.rows += int64(fr.report.Stats.K)
		}
	}
	for _, id := range r.ids {
		for _, n := range []*node{r.source, r.relay} {
			if n == nil {
				continue
			}
			if st, ok := n.s.Object(id); ok {
				res.sent += st.Sent
			}
		}
	}
	if obs != nil {
		obs.finish(r, res)
	}
	return res, nil
}

// timedSetup generates the round's content, then times its set-up after a
// GC, so garbage from earlier rounds is not collected on the clock.
func timedSetup(w workload, seed uint64, round int, tr *tracer) (*swarmRound, time.Duration, error) {
	content := contents(w, seed, round)
	runtime.GC()
	t0 := time.Now()
	r, err := setup(w, seed, round, content, tr)
	return r, time.Since(t0), err
}
