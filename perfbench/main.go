// Command perfbench is the repository benchmark. It drives one workload
// through the module's exported API for a fixed time, checks every
// output against an oracle, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	perfbench --workload tc-chain --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	tc-chain         Example 3.2 transitive closure over a 30-node chain;
//	                 one fresh core.System per fixpoint.
//	serve-mix        one durable peer over loopback HTTP, open-loop
//	                 Poisson reads (doc, delta, invoke, hashes) and pushes.
//	portal-fixpoint  the Section 1 jazz portal over two peers, driven to a
//	                 global fixpoint by a peer.Coordinator.
//
// With --trace 0 the run reports the end-to-end metrics (endToEnd
// below). With --trace 1 it alternates untraced and traced work, records
// spans in memory and reports the per-layer metrics (perLayer), writing
// the spans to .bench_build/trace-<workload>-<seed>.jsonl at the end.
// Lines before the JSON line start with '#': the environment, and each
// workload's own metrics by name (tc.fixpoint_s, serve.read_p50_ms, ...).
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// MetricSpec names one reported metric and its unit.
type MetricSpec struct{ Name, Unit string }

// endToEnd are the metrics of every untraced run. Every workload reports
// all of them, so that one set of gates checks every workload. The
// workload's "op" is its user-visible operation: a fixpoint on tc-chain
// and portal-fixpoint, one request on serve-mix. serve-mix replays the
// same requests in rounds and reports the better quartile over its
// rounds of each round's figure (see quiet); the others report over all
// their fixpoints.
var endToEnd = []MetricSpec{
	{"setup_s", "s"},      // median set-up: inputs, parse, durable open and recovery, listeners
	{"ok_ratio", "ratio"}, // correct ops / attempted ops (1 - error ratio)
	{"heap_mb", "MiB"},    // live heap after a forced GC at the end
	{"op_p50_ms", "ms"},   // median op latency (serve: from its due time)
	{"op_tail_ms", "ms"},  // highest order statistic with 10 samples beyond it
	{"ops_per_s", "1/s"},  // ops completed per second, one after another
}

// peerOps are the request kinds of serve-mix, named as the workload
// reports them; the server endpoint of "hashes" is "hash".
var peerOps = []string{"doc", "delta", "hashes", "invoke", "push"}

// perLayer are the metrics of every traced run. Counts and times summed
// over the traced phase are divided by its ops (fixpoints or requests);
// peer.<op>_* are per request of that kind, replication.apply_ms per
// patch, and query.snapshot_s and subsume.reduce_cold_s are medians of
// single calls. A layer a workload does not exercise reports 0.
var perLayer = func() []MetricSpec {
	m := []MetricSpec{
		{"core.calls_fired", "count"},
		{"core.calls_sterile", "count"},
		{"core.steps", "count"},
		{"core.delta_evals", "count"},
		{"core.useful_ratio", "ratio"},
		{"core.merge_s", "s"},
		{"core.merge_wait_s", "s"},
		{"query.eval_s", "s"},
		{"query.trees_returned", "count"},
		{"query.useful_ratio", "ratio"},
		{"query.snapshot_s", "s"},
		{"pattern.index_hit_ratio", "ratio"},
		{"subsume.reduce_cold_s", "s"},
		{"subsume.push_useful_ratio", "ratio"},
		{"tree.nodes", "count"},
	}
	for _, l := range Layers {
		m = append(m, MetricSpec{l + ".busy_s", "s"}, MetricSpec{l + ".self_s", "s"})
	}
	for _, op := range peerOps {
		m = append(m,
			MetricSpec{"peer." + op + "_p50_ms", "ms"},
			MetricSpec{"peer." + op + "_p99_ms", "ms"},
			MetricSpec{"peer." + op + "_busy_ms", "ms"},
			MetricSpec{"peer." + op + "_bytes", "bytes"})
	}
	return append(m,
		MetricSpec{"peer.sweep_s", "s"},
		MetricSpec{"peer.hash_s", "s"},
		MetricSpec{"peer.invoke_s", "s"},
		MetricSpec{"peer.invoke_calls", "count"},
		MetricSpec{"peer.serve_invoke_s", "s"},
		MetricSpec{"replication.delta_patch_ratio", "ratio"},
		MetricSpec{"replication.apply_ms", "ms"},
		MetricSpec{"journal.appends", "count"},
		MetricSpec{"journal.fsyncs", "count"},
		MetricSpec{"journal.fsync_s", "s"},
		MetricSpec{"journal.bytes", "bytes"},
		MetricSpec{"loadgen.late_p99_ms", "ms"},
		MetricSpec{"loadgen.backlog_max", "count"},
		MetricSpec{"runtime.gc_pause_s", "s"},
		MetricSpec{"trace.overhead_ratio", "ratio"},
		MetricSpec{"trace.unattributed_ratio", "ratio"},
		MetricSpec{"trace.spans", "count"},
	)
}()

// Config is what every workload receives.
type Config struct {
	Seed     int64
	Duration time.Duration // measured time of the run
	Trace    bool
	Dir      string // scratch directory for durable peers, removed afterwards
}

// Outcome is what a workload measured.
type Outcome struct {
	Attempted, Failed int
	Setup             []time.Duration
	Ops               []time.Duration // op latencies of the untraced phase
	Windows           int             // Ops holds this many equal rounds of the same work (0: one)
	OpsPerSec         float64
	HeapMiB           float64
	Layer             map[string]float64 // per-layer metrics, traced runs only
	Notes             []string           // workload-specific lines for the report
	Trace             *Trace
}

// Note adds a report line.
func (o *Outcome) Note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Check counts one attempted op and, when err is non-nil, a failed one.
func (o *Outcome) Check(err error) {
	o.Attempted++
	if err != nil {
		o.Failed++
		if o.Failed <= 5 {
			o.Note("FAILED: %v", err)
		}
	}
}

var workloads = map[string]func(Config) (*Outcome, error){
	"tc-chain":        runTC,
	"serve-mix":       runServe,
	"portal-fixpoint": runPortal,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "tc-chain, serve-mix or portal-fixpoint")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "measured time of the run")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	wl := workloads[*name]
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("# env %s\n", envLine(*name, *seed, *traced == 1))
	out, err := wl(Config{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *traced == 1,
		Dir:      dir,
	})
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	res := result{
		Correct:   out.Failed == 0 && out.Attempted > 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metric{},
	}
	specs := endToEnd
	if *traced == 1 {
		specs = perLayer
		for _, s := range specs {
			res.Metrics[s.Name] = metric{out.Layer[s.Name], s.Unit}
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed))
		if err := out.Trace.WriteFile(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		out.Note("spans written to %s", path)
	} else {
		ops := Summarize(durationsMS(out.Ops))
		windows := Windowed(durationsMS(out.Ops), out.Windows)
		p50 := quietOf(windows, func(s Summary) float64 { return s.P50 })
		tail := quietOf(windows, func(s Summary) float64 { return s.Tail })
		setup := Summarize(secondsOf(out.Setup))
		res.Metrics["setup_s"] = metric{setup.P50, "s"}
		res.Metrics["ok_ratio"] = metric{1 - float64(out.Failed)/float64(max(1, out.Attempted)), "ratio"}
		res.Metrics["heap_mb"] = metric{out.HeapMiB, "MiB"}
		res.Metrics["op_p50_ms"] = metric{p50, "ms"}
		res.Metrics["op_tail_ms"] = metric{tail, "ms"}
		res.Metrics["ops_per_s"] = metric{out.OpsPerSec, "1/s"}
		out.Note("op latency ms: %s", ops)
		for i, w := range windows {
			out.Note("  window %d of %d: %s", i+1, len(windows), w)
		}
		out.Note("setup_s %.4g s (%s)", setup.P50, setup)
		out.Note("error_ratio %.6g ratio (%d failed of %d attempted)",
			float64(out.Failed)/float64(max(1, out.Attempted)), out.Failed, out.Attempted)
		out.Note("heap_mb %.4g MiB", out.HeapMiB)
	}
	for _, n := range out.Notes {
		fmt.Println("#", n)
	}
	for _, s := range specs {
		fmt.Printf("# %-32s %14.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// heapMiB forces a collection and reports the live heap.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// envLine records where and how the run was made.
func envLine(workload string, seed int64, traced bool) string {
	env := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
		"fsync":      "every journal record (Durability.SyncEvery 0 = 1)",
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	return string(b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
