//go:build unix

package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/generation"
	"ltnc/internal/integrity"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/swarm"
)

// minReplay is the least time one replay loop runs, so a per-call figure
// averages over enough calls to be read to a few percent.
const minReplay = 50 * time.Millisecond

// replay holds the per-layer figures measured by feeding the last traced
// round's captured frames and content back through each layer's exported
// functions, one layer at a time.
type replay struct {
	frames                         int
	parseNs, appendNs, headerBytes float64
	decodeRows                     int
	decodeNs, decodeAllocs         float64
	innovative                     float64
	completeUs, completeAllocs     float64
	partialUs                      float64
	partialFrom                    string
	manifestNs, verifyNs           float64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// loop calls fn until minReplay has passed and returns the calls made and
// the time and allocations they took.
func loop(fn func() int) (calls int, d time.Duration, allocs uint64) {
	a0 := mallocs()
	start := time.Now()
	for d < minReplay {
		calls += fn()
		d = time.Since(start)
	}
	return calls, d, mallocs() - a0
}

func replayLayers(o *roundObs) (replay, error) {
	var rep replay
	r := o.last
	if len(o.fcap) == 0 {
		return rep, errors.New("traced round captured no DATA at the fetcher")
	}
	idIndex := map[swarm.ObjectID]int{}
	for i, id := range r.ids {
		idIndex[id] = i
	}
	tr := o.tr
	span := func(name string, id swarm.ObjectID, start time.Time, n int) {
		tr.timed(name, "replay", id, start, time.Now(), n)
	}

	// Wire codec: parse every captured frame, and re-encode the parsed
	// packets into one reused buffer.
	views := make([]packet.WireView, 0, len(o.fcap))
	bodies := make([][]byte, 0, len(o.fcap))
	for _, f := range o.fcap {
		wv, err := packet.ParseWire(f[1:])
		if err != nil {
			return rep, fmt.Errorf("captured frame: %w", err)
		}
		views = append(views, wv)
		bodies = append(bodies, f[1:])
	}
	rep.frames = len(bodies)
	start := time.Now()
	calls, d, _ := loop(func() int {
		for _, b := range bodies {
			if _, err := packet.ParseWire(b); err != nil {
				panic(err) // parsed cleanly above
			}
		}
		return len(bodies)
	})
	span("packet.ParseWire", swarm.ObjectID{}, start, calls)
	rep.parseNs = float64(d.Nanoseconds()) / float64(calls)
	pkts := make([]*packet.Packet, len(views))
	hdr := 0
	for i, wv := range views {
		v := bitvec.New(wv.K)
		if err := v.UnmarshalInto(wv.VecBytes(bodies[i])); err != nil {
			return rep, fmt.Errorf("captured vector: %w", err)
		}
		pkts[i] = &packet.Packet{Vec: v, Payload: wv.PayloadBytes(bodies[i]),
			Generation: wv.Generation, Generations: wv.Generations, Object: wv.Object}
		hdr += len(bodies[i]) - wv.M
	}
	rep.headerBytes = float64(hdr) / float64(len(pkts))
	buf := make([]byte, 0, 2048)
	start = time.Now()
	calls, d, _ = loop(func() int {
		for _, p := range pkts {
			buf = packet.AppendWire(buf[:0], p)
		}
		return len(pkts)
	})
	span("packet.AppendWire", swarm.ObjectID{}, start, calls)
	rep.appendNs = float64(d.Nanoseconds()) / float64(calls)

	// Decode: each object's captured stream into a fresh coder of the
	// same geometry, through the arena path the session uses, until it
	// completes. Rows of already complete generations are aborted on the
	// header, as the session does, and do not count as decoder rows.
	byObj := make([][]int, len(r.ids))
	for i, wv := range views {
		if oi, ok := idIndex[wv.Object]; ok {
			byObj[oi] = append(byObj[oi], i)
		}
	}
	var rows, innov int
	var decodeDur time.Duration
	var decodeAllocs uint64
	for oi, idx := range byObj {
		g := o.geom[oi]
		if g.K == 0 || len(idx) == 0 {
			continue
		}
		c, err := newCoder(g)
		if err != nil {
			return rep, err
		}
		a0 := mallocs()
		start := time.Now()
		n, in := feed(c, views, bodies, idx, len(idx))
		d := time.Since(start)
		decodeAllocs += mallocs() - a0
		span("decode.replay", r.ids[oi], start, n)
		decodeDur += d
		rows += n
		innov += in
	}
	rep.decodeRows = rows
	rep.decodeNs = ratio(float64(decodeDur.Nanoseconds()), float64(rows))
	rep.decodeAllocs = ratio(float64(decodeAllocs), float64(rows))
	rep.innovative = ratio(float64(innov), float64(rows))

	// Recode at a complete node: the source's coder, seeded with the
	// natives of the first object fetcher 0 completed.
	first := slices.IndexFunc(o.geom, func(g swarm.ObjectStats) bool { return g.K > 0 })
	if first < 0 {
		return rep, errors.New("fetcher 0 completed no fetch in the last traced round")
	}
	g0, id0 := o.geom[first], r.ids[first]
	natives, err := lt.Split(r.content[first], g0.K)
	if err != nil {
		return rep, err
	}
	src, err := newCoder(g0)
	if err != nil {
		return rep, err
	}
	if err := src.Seed(natives); err != nil {
		return rep, err
	}
	start = time.Now()
	calls, d, allocs := loop(func() int {
		for i := 0; i < 64; i++ {
			if _, ok := src.Recode(nil); !ok {
				panic("complete coder refused to recode")
			}
		}
		return 64
	})
	span("recode.complete", id0, start, calls)
	rep.completeUs = float64(d.Nanoseconds()) / float64(calls) / 1e3
	rep.completeAllocs = float64(allocs) / float64(calls)

	// Recode at a partial node: half of the relay's inbound rows of the
	// same object (the fetcher's on workloads without a relay).
	pviews, pbodies, from := views, bodies, "fetcher's inbound rows"
	if len(o.rcap) > 0 {
		pviews, pbodies, from = nil, nil, "relay's inbound rows"
		for _, f := range o.rcap {
			wv, err := packet.ParseWire(f[1:])
			if err != nil {
				return rep, fmt.Errorf("captured relay frame: %w", err)
			}
			pviews = append(pviews, wv)
			pbodies = append(pbodies, f[1:])
		}
	}
	var pidx []int
	for i, wv := range pviews {
		if wv.Object == id0 {
			pidx = append(pidx, i)
		}
	}
	part, err := newCoder(g0)
	if err != nil {
		return rep, err
	}
	feed(part, pviews, pbodies, pidx, len(pidx)/2)
	made := 0
	start = time.Now()
	calls, d, _ = loop(func() int {
		for i := 0; i < 64; i++ {
			if _, ok := part.Recode(nil); ok {
				made++
			}
		}
		return 64
	})
	span("recode.partial", id0, start, calls)
	rep.partialUs = ratio(float64(d.Nanoseconds()), float64(made)) / 1e3
	rep.partialFrom = fmt.Sprintf("%s, %d of %d natives decoded", from, part.DecodedCount(), g0.K)

	// Integrity: digest and verify the same object's natives.
	bytes := float64(len(natives) * len(natives[0]))
	var man *integrity.Manifest
	start = time.Now()
	calls, d, _ = loop(func() int {
		m, err := integrity.NewManifest(natives)
		if err != nil {
			panic(err)
		}
		man = m
		return 1
	})
	span("integrity.NewManifest", id0, start, calls)
	rep.manifestNs = float64(d.Nanoseconds()) / float64(calls) / bytes
	start = time.Now()
	calls, d, _ = loop(func() int {
		if err := man.VerifyAll(natives); err != nil {
			panic(err)
		}
		return 1
	})
	span("integrity.VerifyAll", id0, start, calls)
	rep.verifyNs = float64(d.Nanoseconds()) / float64(calls) / bytes
	return rep, nil
}

func newCoder(g swarm.ObjectStats) (*generation.Coder, error) {
	gens := max(g.Generations, 1)
	return generation.New(generation.Options{Generations: gens, KPerGeneration: g.K / gens, M: g.M, Seed: 1})
}

// feed offers up to limit of the indexed frames to c until it completes,
// and returns the rows that reached the decoder and how many of them were
// innovative.
func feed(c *generation.Coder, views []packet.WireView, bodies [][]byte, idx []int, limit int) (rows, innov int) {
	for _, i := range idx[:limit] {
		if c.Complete() {
			break
		}
		wv := views[i]
		if c.Check(wv.Generations, wv.Generation, wv.K) != nil {
			continue
		}
		g := int(wv.Generation)
		if c.GenComplete(g) {
			continue
		}
		rows++
		vec := c.AcquireVec(g)
		if vec.UnmarshalInto(wv.VecBytes(bodies[i])) != nil {
			c.ReleaseVec(g, vec)
			continue
		}
		if c.IsRedundant(g, vec) {
			c.ReleaseVec(g, vec)
			continue
		}
		var payload []byte
		if wv.M > 0 {
			payload = c.AcquireRow(g)
			copy(payload, wv.PayloadBytes(bodies[i]))
		}
		if res, _ := c.ReceiveOwned(g, vec, payload); !res.Redundant {
			innov++
		}
	}
	return rows, innov
}
