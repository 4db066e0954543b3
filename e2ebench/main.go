//go:build unix

// Command e2ebench is the repository's end-to-end benchmark: closed-loop
// LTNC swarms on 127.0.0.1 UDP, all sessions in this one process, every
// session on the default swarm.Config. It prints each metric by name with
// its unit and, as its last line, one JSON object with the results.
//
//	bash e2ebench/run.sh --workload relay-lossy --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced for half the time and traced for the other
// half, then replays the captured frames through the packet, generation
// and integrity layers, and prints the per-layer metrics together with the
// tracing overhead. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// minSetups is how many set-up samples a run takes; runs whose rounds are
// too long to provide them add set-up-only trials.
const minSetups = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bulk-udp, relay-lossy or catalog-fanout")
	seed := fs.Uint64("seed", 1, "seed for content, session seeds and loss coins")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for spans and layer tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, budget, *out, stdout)
	} else {
		res, err = untracedRun(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	if *trace != 1 {
		for _, m := range append(res.metrics, res.info...) {
			fmt.Fprintf(stdout, "%-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	if err := res.printJSON(stdout); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if res.completed == 0 {
		fmt.Fprintf(stderr, "e2ebench: %s completed no fetch\n", w.name)
		return 1
	}
	return 0
}

type result struct {
	attempted, failed, mismatched, completed int
	metrics                                  []metric
	info                                     []metric // printed, but not in the JSON result
}

func (r result) printJSON(wr io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.mismatched == 0 && r.completed > 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(wr, string(b))
	return err
}

// rounds runs closed-loop rounds, numbered from first, until another
// round of average length would overrun budget; at least one always runs.
func rounds(w workload, seed uint64, first int, budget time.Duration, tr *tracer, obs *roundObs) ([]roundResult, error) {
	var out []roundResult
	start := time.Now()
	for i := 0; ; i++ {
		res, err := runRound(w, seed, first+i, tr, obs)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		el := time.Since(start)
		if el+el/time.Duration(i+1) > budget {
			return out, nil
		}
	}
}

// totals sums the rounds' fetch outcomes.
type totals struct {
	result
	bytes, rows, sent int64
	wall, cpu         time.Duration
	ms, overhead      []float64
}

func sum(rs []roundResult) totals {
	var t totals
	for _, r := range rs {
		t.bytes += r.bytes
		t.rows += r.rows
		t.sent += r.sent
		t.wall += r.wall
		t.cpu += r.cpu
		for _, f := range r.fetches {
			t.attempted++
			switch {
			case f.ok:
				t.completed++
				t.ms = append(t.ms, f.ms)
				t.overhead = append(t.overhead, f.report.Overhead())
			case f.mismatch:
				t.mismatched++
				t.failed++
			default:
				t.failed++
			}
		}
	}
	return t
}

func (t totals) goodput() float64  { return ratio(float64(t.bytes)/1e6, t.wall.Seconds()) }
func (t totals) cpuPerMB() float64 { return ratio(t.cpu.Seconds(), float64(t.bytes)/1e6) }

func untracedRun(w workload, seed uint64, budget time.Duration) (result, error) {
	rs, err := rounds(w, seed, 0, budget, nil, nil)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	for _, r := range rs {
		setups = append(setups, r.setup.Seconds())
	}
	for i := 0; len(setups) < minSetups; i++ {
		r, d, err := timedSetup(w, seed, 1000+i, nil)
		if err != nil {
			return result{}, err
		}
		r.teardown()
		setups = append(setups, d.Seconds())
	}
	t := sum(rs)
	p50, _ := percentile(t.ms, 0.50)
	p90, ok90 := percentile(t.ms, 0.90)
	res := t.result
	res.metrics = []metric{
		{"goodput_mbps", t.goodput(), "MB/s", fmt.Sprintf("%d rounds, %.1f MB in %.2f s", len(rs), float64(t.bytes)/1e6, t.wall.Seconds())},
		{"fetch_p50_ms", p50, "ms", fmt.Sprintf("n=%d", len(t.ms))},
		{"fetch_p90_ms", p90, "ms", tailNote(len(t.ms), ok90)},
		{"frames_per_innovative", ratio(float64(t.sent), float64(t.rows)), "frames", fmt.Sprintf("%d DATA sent / %d rows", t.sent, t.rows)},
		{"reception_overhead", median(t.overhead), "ratio", fmt.Sprintf("median, n=%d", len(t.overhead))},
		{"fetch_ok_ratio", ratio(float64(t.completed), float64(t.attempted)), "ratio", fmt.Sprintf("%d/%d", t.completed, t.attempted)},
		{"peak_rss_mb", float64(peakRSS()) / 1e6, "MB", ""},
		{"setup_s", median(setups), "s", fmt.Sprintf("median, n=%d, range %.4f..%.4f", len(setups), slices.Min(setups), slices.Max(setups))},
	}
	// CPU time drifts with the host's load on a shared VM, too far for a
	// bound; the traced run reports it as trace.untraced_cpu_s_per_mb.
	res.info = []metric{{"cpu_s_per_mb", t.cpuPerMB(), "s/MB", "not gated: see README"}}
	return res, nil
}

func tracedRun(w workload, seed uint64, budget time.Duration, outDir string, stdout io.Writer) (result, error) {
	base, err := rounds(w, seed, 0, budget/2, nil, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	obs := &roundObs{tr: tr}
	traced, err := rounds(w, seed, len(base), budget-budget/2, tr, obs)
	if err != nil {
		return result{}, err
	}
	ms, err := obs.layerMetrics(w)
	if err != nil {
		return result{}, err
	}
	b, t := sum(base), sum(traced)
	ms = append(ms,
		metric{"trace.goodput_mbps", t.goodput(), "MB/s", fmt.Sprintf("traced, %d rounds", len(traced))},
		metric{"trace.untraced_goodput_mbps", b.goodput(), "MB/s", fmt.Sprintf("same process, %d rounds", len(base))},
		metric{"trace.cpu_s_per_mb", t.cpuPerMB(), "s/MB", "traced"},
		metric{"trace.untraced_cpu_s_per_mb", b.cpuPerMB(), "s/MB", "same process"},
		metric{"trace.goodput_ratio", ratio(t.goodput(), b.goodput()), "ratio", "traced / untraced"},
		metric{"trace.cpu_ratio", ratio(t.cpuPerMB(), b.cpuPerMB()), "ratio", "traced / untraced"},
	)
	all := sum(append(base, traced...))
	res := all.result
	res.metrics = ms

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	stem := fmt.Sprintf("%s-seed%d", w.name, seed)
	if err := tr.write(filepath.Join(outDir, "spans-"+stem+".json")); err != nil {
		return result{}, err
	}
	table := layerTable(w, ms)
	if err := os.WriteFile(filepath.Join(outDir, "layers-"+stem+".txt"), []byte(table), 0o644); err != nil {
		return result{}, err
	}
	fmt.Fprint(stdout, table)
	return res, nil
}

// layerEffect is the end-to-end metric each per-layer metric should move,
// and the workload where it should show.
var layerEffect = map[string][2]string{
	"transport.send_syscalls_per_frame": {"cpu_s_per_mb", "bulk-udp"},
	"transport.recv_syscalls_per_frame": {"cpu_s_per_mb", "bulk-udp"},
	"transport.frames_per_send_call":    {"cpu_s_per_mb", "bulk-udp, catalog-fanout"},
	"transport.frames_per_recv_call":    {"cpu_s_per_mb", "bulk-udp, catalog-fanout"},
	"transport.send_busy_s":             {"cpu_s_per_mb", "bulk-udp, catalog-fanout"},
	"transport.kernel_loss_ratio":       {"goodput_mbps, frames_per_innovative", "catalog-fanout"},
	"transport.control_frame_share":     {"cpu_s_per_mb", "relay-lossy"},
	"transport.control_byte_share":      {"cpu_s_per_mb, transport.kernel_loss_ratio", "bulk-udp"},
	"session.push_ticks":                {"goodput_mbps", "bulk-udp"},
	"session.data_frames_per_tick":      {"goodput_mbps", "bulk-udp"},
	"session.tick_lag_p50_ms":           {"goodput_mbps, fetch_p50_ms", "catalog-fanout"},
	"session.tick_lag_p99_ms":           {"goodput_mbps, fetch_p50_ms", "catalog-fanout"},
	"session.ingest_drop_ratio":         {"goodput_mbps", "catalog-fanout"},
	"session.header_abort_ratio":        {"frames_per_innovative", "relay-lossy"},
	"session.first_row_ms":              {"fetch_p50_ms", "relay-lossy, bulk-udp"},
	"session.gen_done_p50_ms":           {"fetch_p50_ms", "relay-lossy, bulk-udp"},
	"packet.parse_ns_per_frame":         {"cpu_s_per_mb", "catalog-fanout"},
	"packet.append_ns_per_frame":        {"cpu_s_per_mb", "catalog-fanout"},
	"packet.header_bytes_per_frame":     {"cpu_s_per_mb", "catalog-fanout"},
	"decode.ns_per_row":                 {"cpu_s_per_mb", "catalog-fanout"},
	"decode.allocs_per_row":             {"cpu_s_per_mb", "catalog-fanout"},
	"decode.innovative_ratio":           {"reception_overhead", "all"},
	"recode.complete_us_per_pkt":        {"goodput_mbps, cpu_s_per_mb", "catalog-fanout (bulk-udp: cpu only)"},
	"recode.allocs_per_pkt":             {"cpu_s_per_mb", "catalog-fanout"},
	"recode.partial_us_per_pkt":         {"cpu_s_per_mb", "relay-lossy"},
	"integrity.manifest_ns_per_byte":    {"setup_s", "all"},
	"integrity.verify_ns_per_byte":      {"cpu_s_per_mb", "all"},
	"member.frames":                     {"fetch_p50_ms", "catalog-fanout"},
	"member.time_to_neighbors_ms":       {"fetch_p50_ms", "catalog-fanout"},
	"runtime.gc_cpu_share":              {"cpu_s_per_mb", "catalog-fanout"},
}

func layerTable(w workload, ms []metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer metrics, workload %s (traced run)\n", w.name)
	fmt.Fprintf(&b, "%-34s %12s %-7s %-36s %-36s %s\n", "metric", "value", "unit", "moves", "on", "note")
	for _, m := range ms {
		eff := layerEffect[m.name]
		fmt.Fprintf(&b, "%-34s %12.6g %-7s %-36s %-36s %s\n", m.name, m.value, m.unit, eff[0], eff[1], m.note)
	}
	return b.String()
}
