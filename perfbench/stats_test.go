package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
)

func oneTo(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileExact(t *testing.T) {
	s := oneTo(100)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
		{-1, 1}, {2, 100}, // clamped to [min, max]
	} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %g", got)
	}
}

func TestSummarizeTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailQ float64
	}{
		{15, 0.5}, // too few samples: the median stands in
		{20, 0.5},
		{29, 19.0 / 29}, // about a 30 s run of one-second fixpoints
		{30, 20.0 / 30},
		{1000, 0.99},
		{20000, 0.9995},
	} {
		xs := oneTo(c.n)
		// Shuffle-free reverse order: Summarize must sort a copy.
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		s := Summarize(xs)
		if s.TailQ != c.tailQ || s.N != c.n || s.Min != 1 || s.Max != float64(c.n) {
			t.Errorf("n=%d: %+v, want tail quantile %g", c.n, s, c.tailQ)
		}
		if c.tailQ > 0.5 && s.Tail != float64(c.n-tailBeyond) {
			t.Errorf("n=%d: tail %g has %g samples beyond it, want %d", c.n, s.Tail, float64(c.n)-s.Tail, tailBeyond)
		}
		if c.tailQ == 0.5 && s.Tail != s.P50 {
			t.Errorf("n=%d: tail %g, want the median %g", c.n, s.Tail, s.P50)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("Summarize reordered its input")
		}
	}
}

func TestWindowed(t *testing.T) {
	ws := Windowed(oneTo(10), 3)
	if len(ws) != 3 || ws[0].N+ws[1].N+ws[2].N != 10 || ws[0].Min != 1 || ws[2].Max != 10 {
		t.Errorf("10 samples in 3 windows: %+v", ws)
	}
	if ws[0].Max >= ws[1].Min || ws[1].Max >= ws[2].Min {
		t.Errorf("windows are not consecutive: %+v", ws)
	}
	if ws := Windowed(oneTo(2), 3); len(ws) != 2 {
		t.Errorf("2 samples in %d windows, want 2", len(ws))
	}
}

// Over nine rounds the better quartile is the third best, so six slow
// rounds do not move it, whichever way is better.
func TestQuiet(t *testing.T) {
	rounds := []float64{9, 1, 8, 2, 7, 3, 6, 5, 4}
	if got := quiet(rounds, false); got != 3 {
		t.Errorf("lower is better: got %g, want 3", got)
	}
	if got := quiet(rounds, true); got != 7 {
		t.Errorf("higher is better: got %g, want 7", got)
	}
	spoiled := []float64{2, 2, 2, 50, 50, 50, 50, 50, 50}
	if got := quiet(spoiled, false); got != 2 {
		t.Errorf("six of nine rounds spoiled: got %g, want 2", got)
	}
	if rounds[0] != 9 {
		t.Errorf("quiet reordered its input: %v", rounds)
	}
	if got := quiet([]float64{4}, false); got != 4 {
		t.Errorf("one round: got %g, want 4", got)
	}
	ws := Windowed([]float64{1, 5, 3, 10, 50, 30, 2, 6, 4}, 3)
	if got := quietOf(ws, func(s Summary) float64 { return s.P50 }); got != 3 {
		t.Errorf("quietOf round medians 3, 30, 4: got %g, want 3", got)
	}
}

// A stalled request holds the only worker; the requests due meanwhile
// are charged the stall even though each takes no time itself.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	sched := make([]time.Duration, 10)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}
	var calls atomic.Int32
	ol := RunOpenLoop(context.Background(), sched, 1, func(_ context.Context, _, i int) error {
		calls.Add(1)
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(ol.Samples) != len(sched) || calls.Load() != int32(len(sched)) {
		t.Fatalf("got %d samples from %d calls, want %d", len(ol.Samples), calls.Load(), len(sched))
	}
	for _, s := range ol.Samples[1:] {
		due := sched[s.Index]
		if s.Latency < stall-due || s.Late < stall-due {
			t.Errorf("request %d (due %v): latency %v, late %v; the %v stall is not counted",
				s.Index, due, s.Latency, s.Late, stall)
		}
	}
	if ol.BacklogMax < len(sched)-2 {
		t.Errorf("backlog max %d, want at least %d", ol.BacklogMax, len(sched)-2)
	}
}

func TestOpenLoopCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ol := RunOpenLoop(ctx, []time.Duration{time.Hour}, 2, func(context.Context, int, int) error {
		t.Error("request sent after cancellation")
		return nil
	})
	if len(ol.Samples) != 0 {
		t.Errorf("got %d samples", len(ol.Samples))
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"tc-chain":        func(s int64) any { return tcEdges(s) },
		"serve-mix input": func(s int64) any { return *serveInputs(s) },
		"serve-mix plan":  func(s int64) any { return servePlan(s, 500, 0) },
		"portal-fixpoint": func(s int64) any { return *portalInputs(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 generated two different inputs", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 generated the same input", name)
		}
	}
}

func TestServePlanMix(t *testing.T) {
	plan := servePlan(7, 20000, 3)
	for b := 0; b < len(plan); b += planBlock {
		counts := map[string]int{}
		docs := map[int]int{}
		for _, r := range plan[b : b+planBlock] {
			counts[r.op]++
			docs[r.doc]++
			if r.doc < 0 || r.doc >= serveDocs || r.pos < 0 || r.pos >= servePool {
				t.Fatalf("request out of range: %+v", r)
			}
		}
		// Every block holds the mix exactly.
		for _, m := range serveMix {
			if want := m.pct * planBlock / 100; counts[m.op] != want {
				t.Fatalf("block at %d: %d %s requests, want %d", b, counts[m.op], m.op, want)
			}
		}
		// The hottest document gets its zipf share, to the request.
		share := 1 / (1 + math.Pow(2, -zipfS) + math.Pow(3, -zipfS) + math.Pow(4, -zipfS) +
			math.Pow(5, -zipfS) + math.Pow(6, -zipfS) + math.Pow(7, -zipfS) + math.Pow(8, -zipfS))
		if want := share * planBlock; math.Abs(float64(docs[0])-want) > 1 {
			t.Fatalf("block at %d: %d requests to the hottest document, want %.1f", b, docs[0], want)
		}
	}
}

func TestTCChainMatchesDatalog(t *testing.T) {
	edges := tcEdges(3)
	want, err := tcOracle(edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != tcNodes-1 || len(want) != tcNodes*(tcNodes-1)/2 {
		t.Fatalf("%d edges, %d closure pairs", len(edges), len(want))
	}
	s, err := core.ParseSystem(tcSource(edges[:6]))
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(core.RunOptions{}); !res.Terminated {
		t.Fatal("small chain did not terminate")
	}
	small, _ := tcOracle(edges[:6])
	if err := checkPairs(tcPairs(s.Document("d1").Root.Children), small); err != nil {
		t.Error(err)
	}
}

// The counting wrapper must leave the engine's view of the service
// unchanged: Innermost still finds the QueryService, and the binding
// reaches it as given.
func TestCountingServicePassesBinding(t *testing.T) {
	q := syntax.MustParseQuery(`out{$x} :- d/r{a{$x}}`)
	q.Name = "Q"
	qs, err := core.NewQueryService(q)
	if err != nil {
		t.Fatal(err)
	}
	var seen core.Binding
	probe := &core.GoService{Name: "P", Fn: func(ctx context.Context, b core.Binding) (tree.Forest, error) {
		seen = b
		return qs.Invoke(ctx, b)
	}}
	c := &countingService{Service: probe}
	if core.Innermost(&countingService{Service: qs}) != qs {
		t.Error("Innermost does not reach the wrapped QueryService")
	}
	doc := tree.NewLabel("r", tree.NewLabel("a", tree.NewValue("1")), tree.NewLabel("a", tree.NewValue("2")))
	doc.StampAll(1) // newer than the Since baseline below
	b := core.Binding{
		Input:   tree.NewLabel(tree.Input),
		Context: doc,
		Docs:    map[string]*tree.Node{"d": doc},
		Since:   map[string]uint64{"d": 0},
	}
	f, err := c.Invoke(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, b) {
		t.Errorf("wrapped service saw %+v, want %+v", seen, b)
	}
	if got := c.trees.Load(); got != int64(len(f)) || got != 2 {
		t.Errorf("counted %d trees, returned %d", got, len(f))
	}
}

func TestAttribute(t *testing.T) {
	// run [0,100) > sweep [10,90) > call [20,50) > merge [55,60) as the
	// call's causal child, plus an orphan fsync inside an http span.
	spans := []obs.Span{
		{Kind: "bench.run", Span: "r", TSUs: 0, DurUs: 100},
		{Kind: "sweep", Span: "s", Parent: "r", TSUs: 10, DurUs: 80},
		{Kind: "call", Span: "c", Parent: "s", TSUs: 20, DurUs: 30},
		{Kind: "merge", Span: "m", Parent: "c", TSUs: 55, DurUs: 5},
		{Kind: "bench.req", Span: "q", TSUs: 200, DurUs: 40},
		{Kind: "http", Span: "h", Parent: "q", TSUs: 205, DurUs: 30},
		{Kind: "fsync", TSUs: 230, DurUs: 10}, // stamped at its end: [220,230)
	}
	lt := Attribute(spans, 400*time.Microsecond)
	us := func(d time.Duration) int64 { return d.Microseconds() }
	for layer, want := range map[string][2]int64{
		"core":    {100, 20 + 45 + 5}, // busy, self: run, sweep less call and merge, merge
		"query":   {30, 30},
		"client":  {40, 10},
		"peer":    {30, 20},
		"journal": {10, 10},
	} {
		if got := [2]int64{us(lt.Busy[layer]), us(lt.Self[layer])}; got != want {
			t.Errorf("%s: busy, self = %v µs, want %v", layer, got, want)
		}
	}
	if want := 1 - 140.0/400; lt.Unattributed != want {
		t.Errorf("unattributed %g, want %g", lt.Unattributed, want)
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		decl []struct{ Name, Unit string }
		code []MetricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Errorf("%s: %d declared, %d reported", c.name, len(c.decl), len(c.code))
			continue
		}
		for i, m := range c.decl {
			if m.Name != c.code[i].Name || m.Unit != c.code[i].Unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", c.name, i, m.Name, m.Unit, c.code[i].Name, c.code[i].Unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}
