//go:build unix

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"ltnc/swarm"
)

// captureMax bounds the inbound DATA frames one traced node copies for the
// replays: enough for every frame of a bulk-udp or catalog-fanout round.
const captureMax = 40000

// spanMax bounds the spans kept in memory; later spans are counted only.
const spanMax = 200000

// span is one timed call at a layer boundary. Spans of one object share
// Req, its ID; Parent is the span that caused this one (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Frames int    `json:"frames,omitempty"`
}

// tracer keeps spans in memory and writes them out at the end of the run.
// The nil tracer records nothing, so untraced rounds share the call sites.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
	roots   map[swarm.ObjectID]int64 // first Fetch span of each object
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: map[swarm.ObjectID]int64{}}
}

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= spanMax {
		t.dropped++
		return 0
	}
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// beginFetch opens the root span of a Fetch of object id: the first one
// per object becomes the parent of that object's later spans.
func (t *tracer) beginFetch(node string, id swarm.ObjectID) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	sid := t.add(span{Name: "swarm.Fetch", Node: node, Req: id.String(), Start: now, End: now})
	t.mu.Lock()
	if _, ok := t.roots[id]; !ok && sid != 0 {
		t.roots[id] = sid
	}
	t.mu.Unlock()
	return sid
}

func (t *tracer) end(sid int64) {
	if t == nil || sid == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[sid-1].End = now
	t.mu.Unlock()
}

// timed records a finished span for id under that object's Fetch span.
func (t *tracer) timed(name, node string, id swarm.ObjectID, start, end time.Time, frames int) {
	if t == nil {
		return
	}
	var parent int64
	req := ""
	if !id.IsZero() {
		t.mu.Lock()
		parent = t.roots[id]
		t.mu.Unlock()
		req = id.String()
	}
	t.add(span{Parent: parent, Name: name, Node: node, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Frames: frames})
}

// transportSpan records one send or receive call. Its request is the object
// of the first DATA frame it carried; control-only calls have none.
func (t *tracer) transportSpan(name, node string, frames [][]byte, start, end time.Time) {
	if t == nil {
		return
	}
	var id swarm.ObjectID
	for _, f := range frames {
		if oid, ok := frameObject(f); ok {
			id = oid
			break
		}
	}
	t.timed(name, node, id, start, end, len(frames))
}

// frameObject reads the object ID from a DATA frame's packet header
// without a full parse: 16 fixed bytes, then (v3) a 4-byte generation
// count, then the ID.
func frameObject(f []byte) (swarm.ObjectID, bool) {
	var id swarm.ObjectID
	if !isData(f) || len(f) < 1+20+16 {
		return id, false
	}
	off := 1 + 16
	switch f[1+2] {
	case 0x02:
	case 0x03:
		off += 4
	default:
		return id, false
	}
	copy(id[:], f[off:off+16])
	return id, true
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		Epoch   string `json:"epoch"`
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.epoch.UTC().Format(time.RFC3339Nano), t.dropped, t.spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// fetchWatch follows one fetch through the fetcher's Watch snapshots.
type fetchWatch struct {
	start    time.Time
	mu       sync.Mutex
	firstRow time.Duration // -1 until a snapshot shows a received row
	genDone  []time.Duration
	cancel   func()
}

func (fw *fetchWatch) observe(st swarm.ObjectStats) {
	now := time.Since(fw.start)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.firstRow < 0 && st.Received > 0 {
		fw.firstRow = now
	}
	if st.KPer == 0 {
		return
	}
	for len(fw.genDone) < len(st.GenDecoded) {
		fw.genDone = append(fw.genDone, -1)
	}
	for g, d := range st.GenDecoded {
		if d >= st.KPer && fw.genDone[g] < 0 {
			fw.genDone[g] = now
		}
	}
}

// stop unsubscribes once the fetch has returned. A completed fetch's
// generations were all decoded by then, so any whose snapshot raced the
// return are stamped with the return time.
func (fw *fetchWatch) stop(rep swarm.FetchReport, ok bool) {
	fw.cancel()
	now := time.Since(fw.start)
	if !ok {
		return
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for len(fw.genDone) < rep.Stats.Generations {
		fw.genDone = append(fw.genDone, -1)
	}
	for g, d := range fw.genDone {
		if d < 0 {
			fw.genDone[g] = now
		}
	}
	if fw.firstRow < 0 {
		fw.firstRow = now
	}
}

// roundObs gathers a traced round's observations from outside the program:
// the tracing transports and clocks, Watch snapshots, session counters,
// membership polls and runtime/metrics.
type roundObs struct {
	tr *tracer

	mu      sync.Mutex
	watches []*fetchWatch

	// Sums over every traced round.
	udpSendSys, udpSentFrames, udpRecvSys, udpRecvFrames float64
	sendCalls, sendFrames, recvCalls, recvFrames         float64
	sendBusy                                             float64 // seconds
	sentData, sentMember                                 float64
	sentBytes, sentDataBytes                             float64
	recvData                                             float64 // DATA frames arriving, all nodes
	pushTicks, pushData, pushSeconds                     float64
	tickLags                                             []float64
	ingestDropped                                        float64
	aborted, recvDataDecoding                            float64
	neighborMs                                           []float64
	gcCPU, allCPU                                        float64
	bytes, wall                                          float64

	pollStop chan struct{}
	pollWG   sync.WaitGroup
	cpuAt    [2]float64

	// The last round's material for the offline replays.
	last *swarmRound
	geom []swarm.ObjectStats // per object, from fetcher 0's reports
	fcap [][]byte            // fetcher 0's inbound DATA
	rcap [][]byte            // relay's inbound DATA (relay-lossy)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPUClasses() [2]float64 {
	metrics.Read(cpuSamples)
	var v [2]float64
	for i, s := range cpuSamples {
		if s.Value.Kind() == metrics.KindFloat64 {
			v[i] = s.Value.Float64()
		}
	}
	return v
}

func (o *roundObs) begin(r *swarmRound) {
	o.pollStop = make(chan struct{})
	if r.w.bootstrap {
		for _, f := range r.fetchers {
			o.pollWG.Add(1)
			go o.pollNeighbors(f)
		}
	}
	o.cpuAt = readCPUClasses()
}

// pollNeighbors records how long after its Run launch a fetcher's
// membership plane first selects a neighbor.
func (o *roundObs) pollNeighbors(n *node) {
	defer o.pollWG.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if len(n.s.Neighbors()) > 0 {
			o.mu.Lock()
			o.neighborMs = append(o.neighborMs, float64(time.Since(n.runAt))/1e6)
			o.mu.Unlock()
			return
		}
		select {
		case <-o.pollStop:
			return
		case <-tick.C:
		}
	}
}

func (o *roundObs) watch(f *node, id swarm.ObjectID) *fetchWatch {
	fw := &fetchWatch{start: time.Now(), firstRow: -1}
	fw.cancel = f.s.Watch(id, fw.observe)
	o.mu.Lock()
	o.watches = append(o.watches, fw)
	o.mu.Unlock()
	return fw
}

// finish reads every counter while the round's sessions still run.
func (o *roundObs) finish(r *swarmRound, res roundResult) {
	close(o.pollStop)
	o.pollWG.Wait()
	cpu := readCPUClasses()
	o.gcCPU += cpu[0] - o.cpuAt[0]
	o.allCPU += cpu[1] - o.cpuAt[1]
	o.bytes += float64(res.bytes)
	o.wall += res.wall.Seconds()

	for _, n := range r.nodes {
		us := n.udp.Stats()
		o.udpSendSys += float64(us.SendSyscalls)
		o.udpSentFrames += float64(us.SentFrames)
		o.udpRecvSys += float64(us.RecvSyscalls)
		o.udpRecvFrames += float64(us.RecvFrames)
		t := n.traced
		o.sendCalls += float64(t.sendCalls.Load())
		o.sendFrames += float64(t.sendFrames.Load())
		o.recvCalls += float64(t.recvCalls.Load())
		o.recvFrames += float64(t.recvFrames.Load())
		o.sendBusy += float64(t.sendBusyNs.Load()) / 1e9
		o.sentData += float64(t.sentKind[kindData].Load())
		o.sentMember += float64(t.sentKind[kindMember].Load())
		o.sentBytes += float64(t.sentBytes.Load())
		o.sentDataBytes += float64(t.sentDataBytes.Load())
		recvData := float64(t.recvKind[kindData].Load())
		o.recvData += recvData
		o.ingestDropped += float64(n.s.IngestDropped())
		if n.role != "source" {
			o.recvDataDecoding += recvData
			for _, id := range r.ids {
				if st, ok := n.s.Object(id); ok {
					o.aborted += float64(st.Aborted)
				}
			}
		}
		if n.role != "fetch" {
			ts := n.clock.pushTicks()
			o.pushTicks += float64(ts.n)
			o.tickLags = append(o.tickLags, ts.lagsMs...)
			o.pushData += float64(t.sentKind[kindData].Load())
			o.pushSeconds += time.Since(n.runAt).Seconds()
		}
	}

	o.last = r
	o.geom = make([]swarm.ObjectStats, len(r.ids))
	for _, fr := range res.fetches {
		if fr.fetcher == 0 && fr.ok {
			o.geom[fr.object] = fr.report.Stats
		}
	}
	o.fcap = r.fetchers[0].traced.captured()
	o.rcap = nil
	if r.relay != nil {
		o.rcap = r.relay.traced.captured()
	}
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // shown in the table, e.g. why a metric does not apply
}

// layerMetrics turns the traced rounds' observations and the offline
// replays into the per-layer metrics.
func (o *roundObs) layerMetrics(w workload) ([]metric, error) {
	var ms []metric
	add := func(name string, v float64, unit, note string) {
		ms = append(ms, metric{name, v, unit, note})
	}
	mb := o.bytes / 1e6
	add("transport.send_syscalls_per_frame", ratio(o.udpSendSys, o.udpSentFrames), "1/frame", "")
	add("transport.recv_syscalls_per_frame", ratio(o.udpRecvSys, o.udpRecvFrames), "1/frame", "")
	add("transport.frames_per_send_call", ratio(o.sendFrames, o.sendCalls), "frames", "")
	add("transport.frames_per_recv_call", ratio(o.recvFrames, o.recvCalls), "frames", "")
	add("transport.send_busy_s", ratio(o.sendBusy, mb), "s/MB", "time inside Send/SendBatch per delivered MB")
	add("transport.kernel_loss_ratio", max(0, 1-ratio(o.udpRecvFrames, o.udpSentFrames)), "ratio", "")
	add("transport.control_frame_share", 1-ratio(o.sentData, o.sendFrames), "ratio", "")
	add("transport.control_byte_share", 1-ratio(o.sentDataBytes, o.sentBytes), "ratio", "")
	add("session.push_ticks", ratio(o.pushTicks, o.pushSeconds), "1/s", "per pushing session")
	add("session.data_frames_per_tick", ratio(o.pushData, o.pushTicks), "frames", "")
	lag50, _ := percentile(o.tickLags, 0.50)
	lag99, ok99 := percentile(o.tickLags, 0.99)
	add("session.tick_lag_p50_ms", lag50, "ms", fmt.Sprintf("n=%d", len(o.tickLags)))
	add("session.tick_lag_p99_ms", lag99, "ms", tailNote(len(o.tickLags), ok99))
	add("session.ingest_drop_ratio", ratio(o.ingestDropped, o.recvData), "ratio", "")
	add("session.header_abort_ratio", ratio(o.aborted, o.recvDataDecoding), "ratio", "")
	var first, gens []float64
	for _, fw := range o.watches {
		fw.mu.Lock()
		if fw.firstRow >= 0 {
			first = append(first, float64(fw.firstRow)/1e6)
		}
		for _, d := range fw.genDone {
			if d >= 0 {
				gens = append(gens, float64(d)/1e6)
			}
		}
		fw.mu.Unlock()
	}
	add("session.first_row_ms", median(first), "ms", fmt.Sprintf("median, n=%d", len(first)))
	add("session.gen_done_p50_ms", median(gens), "ms", fmt.Sprintf("n=%d", len(gens)))

	rep, err := replayLayers(o)
	if err != nil {
		return nil, err
	}
	add("packet.parse_ns_per_frame", rep.parseNs, "ns", fmt.Sprintf("%d frames", rep.frames))
	add("packet.append_ns_per_frame", rep.appendNs, "ns", "")
	add("packet.header_bytes_per_frame", rep.headerBytes, "B", "")
	add("decode.ns_per_row", rep.decodeNs, "ns", fmt.Sprintf("%d rows", rep.decodeRows))
	add("decode.allocs_per_row", rep.decodeAllocs, "allocs", "")
	add("decode.innovative_ratio", rep.innovative, "ratio", "")
	add("recode.complete_us_per_pkt", rep.completeUs, "us", "")
	add("recode.allocs_per_pkt", rep.completeAllocs, "allocs", "complete coder")
	add("recode.partial_us_per_pkt", rep.partialUs, "us", rep.partialFrom)
	add("integrity.manifest_ns_per_byte", rep.manifestNs, "ns/B", "")
	add("integrity.verify_ns_per_byte", rep.verifyNs, "ns/B", "")

	add("member.frames", ratio(o.sentMember, o.wall), "1/s", "MEMBER frames sent per second")
	if w.bootstrap {
		add("member.time_to_neighbors_ms", median(o.neighborMs), "ms", fmt.Sprintf("median, n=%d", len(o.neighborMs)))
	} else {
		add("member.time_to_neighbors_ms", 0, "ms", "n/a: membership off (no Bootstrap)")
	}
	add("runtime.gc_cpu_share", ratio(o.gcCPU, o.allCPU), "ratio", "")
	return ms, nil
}

func tailNote(n int, ok bool) string {
	if ok {
		return fmt.Sprintf("n=%d", n)
	}
	return fmt.Sprintf("n=%d, fewer than %d beyond: not a tail estimate", n, minBeyond)
}
