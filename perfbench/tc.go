package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/datalog"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
	"axml/internal/workload"
)

// tcNodes sizes the chain so that one fixpoint takes about a second on a
// 2-vCPU Xeon: 435 closure pairs, 2324 nodes at the fixpoint.
const tcNodes = 30

// tcSrc is Example 3.2: d1 accumulates the transitive closure of the
// edge relation in d0 through g (copy) and f (compose).
const tcSrc = `
doc  d0 = r{%s}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`

// tcEdges is the chain graph of the seed: workload.Chain's shape with
// the vertices renamed by a seeded permutation and the edges listed in a
// seeded order.
func tcEdges(seed int64) [][2]string {
	rng := rand.New(rand.NewSource(seed))
	chain := workload.Edges(rng, workload.Chain, tcNodes)
	perm := rng.Perm(tcNodes)
	rename := func(v string) string {
		var i int
		fmt.Sscanf(v, "n%d", &i)
		return fmt.Sprintf("v%02d", perm[i])
	}
	out := make([][2]string, len(chain))
	for i, e := range chain {
		out[i] = [2]string{rename(e[0]), rename(e[1])}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tcSource renders the system file for a graph.
func tcSource(edges [][2]string) string {
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf(`t{a{"%s"},b{"%s"}}`, e[0], e[1])
	}
	return fmt.Sprintf(tcSrc, strings.Join(parts, ","))
}

// buildCounted builds the system of src as core.ParseSystem does, but
// with every query service wrapped in a countingService, recorded in
// counter under its name. Only traced fixpoints use it; everything else
// builds through core.ParseSystem itself.
func buildCounted(src string, counter map[string]*countingService) (*core.System, error) {
	spec, err := syntax.ParseSystem(src)
	if err != nil {
		return nil, err
	}
	s := core.NewSystem()
	for _, d := range spec.Docs {
		if err := s.AddDocument(d); err != nil {
			return nil, err
		}
	}
	for _, q := range spec.Funcs {
		qs, err := core.NewQueryService(q)
		if err != nil {
			return nil, err
		}
		c := &countingService{Service: qs}
		counter[qs.ServiceName()] = c
		if err := s.AddService(c); err != nil {
			return nil, err
		}
	}
	return s, s.Validate()
}

// tcPairs reads the pairs out of a forest of t{a,b} trees.
func tcPairs(f tree.Forest) map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, c := range f {
		if c.Kind != tree.Label || c.Name != "t" {
			continue
		}
		var p [2]string
		for _, ab := range c.Children {
			if len(ab.Children) == 1 && (ab.Name == "a" || ab.Name == "b") {
				p[map[string]int{"a": 0, "b": 1}[ab.Name]] = ab.Children[0].Name
			}
		}
		out[p] = true
	}
	return out
}

// tcOracle is the closure computed by semi-naive datalog.
func tcOracle(edges [][2]string) (map[[2]string]bool, error) {
	db, _, err := datalog.TransitiveClosure(edges).SemiNaive()
	if err != nil {
		return nil, err
	}
	out := map[[2]string]bool{}
	for _, t := range db["tc"].Tuples() {
		out[[2]string{t[0], t[1]}] = true
	}
	return out, nil
}

func checkPairs(got, want map[[2]string]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("tc: %d pairs, datalog has %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			return fmt.Errorf("tc: pair %v missing", p)
		}
	}
	return nil
}

// checkJoin checks a snapshot of f over the fixpoint: on a chain every
// closure pair but the edges themselves composes two closure pairs.
func checkJoin(ans tree.Forest, edges [][2]string, want map[[2]string]bool) error {
	got := tcPairs(ans)
	for _, e := range edges {
		got[e] = true
	}
	return checkPairs(got, want)
}

// tcRun is one measured fixpoint and what the traced run needs from it.
type tcRun struct {
	sys     *core.System
	res     core.RunResult
	dur     time.Duration
	setup   time.Duration
	counter map[string]*countingService
}

// tcFixpoint builds a fresh system and runs it to its fixpoint with
// default options except MaxSteps. Traced, every service is wrapped in a
// counter (see buildCounted) and the run goes to tr.
func tcFixpoint(src string, tr *Trace) (tcRun, error) {
	start := time.Now()
	r := tcRun{counter: map[string]*countingService{}}
	var sys *core.System
	var err error
	if tr == nil {
		sys, err = core.ParseSystem(src)
	} else {
		sys, err = buildCounted(src, r.counter)
	}
	if err != nil {
		return r, err
	}
	r.sys, r.setup = sys, time.Since(start)
	opts := core.RunOptions{MaxSteps: 10_000_000}
	start = time.Now()
	if tr == nil {
		r.res = sys.Run(opts)
	} else {
		opts.Tracer = tr.Tracer()
		ctx, end := tr.Start(context.Background(), "bench.run", "tc")
		r.res = sys.RunContext(ctx, opts)
		end(r.res.Err)
	}
	r.dur = time.Since(start)
	if !r.res.Terminated || r.res.Err != nil {
		return r, fmt.Errorf("tc: run did not terminate (err %v)", r.res.Err)
	}
	return r, nil
}

func runTC(cfg Config) (*Outcome, error) {
	out := &Outcome{Layer: map[string]float64{}}
	edges := tcEdges(cfg.Seed)
	src := tcSource(edges)
	want, err := tcOracle(edges)
	if err != nil {
		return nil, err
	}
	// Set-up is a fraction of a millisecond: repeat it for a steady median.
	for i := 0; i < 25; i++ {
		start := time.Now()
		if _, err := core.ParseSystem(src); err != nil {
			return nil, err
		}
		out.Setup = append(out.Setup, time.Since(start))
	}
	out.Note("tc-chain: %d-node chain, %d edges, %d closure pairs; default RunOptions except MaxSteps",
		tcNodes, len(edges), len(want))

	// A traced run alternates untraced and traced fixpoints, so that the
	// overhead ratio compares neighbours in time.
	var tt *tcTraced
	if cfg.Trace {
		tt = &tcTraced{tr: newTrace(), edges: edges, want: want}
		out.Trace = tt.tr
	}
	var busy time.Duration
	var last tcRun
	deadline := time.Now().Add(cfg.Duration)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ { // a traced run needs one of each
		if tt != nil && i%2 == 1 {
			if err := tt.fixpoint(src, cfg.Seed+int64(i), out); err != nil {
				return nil, err
			}
			continue
		}
		r, err := tcFixpoint(src, nil)
		if err == nil {
			err = checkPairs(tcPairs(r.sys.Document("d1").Root.Children), want)
		}
		out.Check(err)
		if r.sys == nil {
			continue // could not even build: already counted as failed
		}
		out.Setup = append(out.Setup, r.setup)
		out.Ops = append(out.Ops, r.dur)
		busy += r.dur
		last = r
	}
	if last.sys == nil {
		return nil, fmt.Errorf("tc: no fixpoint completed")
	}
	out.OpsPerSec = float64(len(out.Ops)) / busy.Seconds()
	fix := Summarize(secondsOf(out.Ops))
	out.Note("tc.fixpoint_s %.4g s (%s; steps %d, calls fired %d, nodes %d)",
		fix.P50, fix, last.res.Steps, last.res.Stats.CallsFired, last.sys.Size())
	out.HeapMiB = heapMiB()
	runtime.KeepAlive(last.sys) // the last fixpoint counts as live
	if tt != nil {
		return out, tt.report(out)
	}
	return out, nil
}

// tcTraced accumulates the traced fixpoints of a traced run.
type tcTraced struct {
	tr    *Trace
	edges [][2]string
	want  map[[2]string]bool

	wall, gcPause                                            time.Duration
	traced, reduceCold, snap                                 []float64
	fired, sterile, steps, deltas, trees, pairs, nodes, hits float64
	lookups                                                  float64
	mergeWait                                                time.Duration
}

// fixpoint runs one traced fixpoint, checks it, and times a cold
// reduction of its d1 forest and a snapshot of its join rule.
func (t *tcTraced) fixpoint(src string, seed int64, out *Outcome) error {
	start, gc0 := time.Now(), gcPauses()
	defer func() {
		t.wall += time.Since(start)
		t.gcPause += gcPauses() - gc0
	}()
	r, err := tcFixpoint(src, t.tr)
	if err != nil {
		out.Check(err)
		return nil
	}
	d1 := r.sys.Document("d1").Root.Children
	got := tcPairs(d1)
	out.Check(checkPairs(got, t.want))
	t.traced = append(t.traced, r.dur.Seconds())
	st := r.res.Stats
	t.fired += float64(st.CallsFired)
	t.sterile += float64(st.CallsSterile)
	t.steps += float64(r.res.Steps)
	t.deltas += float64(st.DeltaEvals)
	t.hits += float64(st.IndexHits)
	t.lookups += float64(st.IndexHits + st.IndexMisses)
	t.mergeWait += time.Duration(st.MergeWait.Sum)
	for _, c := range r.counter {
		t.trees += float64(c.trees.Load())
	}
	t.pairs += float64(len(got))
	t.nodes += float64(r.sys.Size())

	// Cold reduction: fresh copies of the fixpoint's d1 forest with every
	// memo cleared, each pair tree twice, in a shuffled order.
	var forest tree.Forest
	for _, c := range d1 {
		forest = append(forest, c.Copy())
		if c.Kind == tree.Label {
			forest = append(forest, c.Copy())
		}
	}
	for _, n := range forest {
		tree.InvalidateDigestAll(n)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(forest), func(i, j int) { forest[i], forest[j] = forest[j], forest[i] })
	_, end := t.tr.Start(context.Background(), "bench.reduce", "d1")
	t0 := time.Now()
	reduced := subsume.ReduceForest(forest)
	t.reduceCold = append(t.reduceCold, time.Since(t0).Seconds())
	end(nil)
	if len(reduced) != len(d1) {
		out.Check(fmt.Errorf("tc: cold reduction kept %d of %d trees", len(reduced), len(d1)))
	}

	// One snapshot of the join rule over the fixpoint documents.
	q := core.Innermost(r.sys.Service("f")).(*core.QueryService).Query
	_, end = t.tr.Start(context.Background(), "bench.snapshot", "f")
	t0 = time.Now()
	ans, err := query.Snapshot(q, r.sys.Docs())
	t.snap = append(t.snap, time.Since(t0).Seconds())
	end(err)
	if err == nil {
		err = checkJoin(ans, t.edges, t.want)
	}
	out.Check(err)
	return nil
}

// report fills the per-layer metrics, per traced fixpoint.
func (t *tcTraced) report(out *Outcome) error {
	if len(t.traced) == 0 {
		return fmt.Errorf("tc: no traced fixpoint completed")
	}
	spans, err := t.tr.Spans()
	if err != nil {
		return err
	}
	n := float64(len(t.traced))
	lt := Attribute(spans, t.wall)
	var merge, eval time.Duration
	for _, s := range spans {
		switch s.Kind {
		case "merge":
			merge += time.Duration(s.DurUs) * time.Microsecond
		case "call":
			eval += time.Duration(s.DurUs) * time.Microsecond
		}
	}
	L := out.Layer
	L["core.calls_fired"] = t.fired / n
	L["core.calls_sterile"] = t.sterile / n
	L["core.steps"] = t.steps / n
	L["core.delta_evals"] = t.deltas / n
	L["core.useful_ratio"] = t.steps / max(1, t.fired)
	L["core.merge_s"] = merge.Seconds() / n
	L["core.merge_wait_s"] = t.mergeWait.Seconds() / n
	L["query.eval_s"] = eval.Seconds() / n
	L["query.trees_returned"] = t.trees / n
	L["query.useful_ratio"] = t.pairs / max(1, t.trees)
	L["query.snapshot_s"] = median(t.snap)
	L["pattern.index_hit_ratio"] = t.hits / max(1, t.lookups)
	L["subsume.reduce_cold_s"] = median(t.reduceCold)
	L["tree.nodes"] = t.nodes / n
	L["runtime.gc_pause_s"] = t.gcPause.Seconds() / n
	fillLayers(L, lt, n, len(spans))
	L["trace.overhead_ratio"] = median(t.traced) / median(secondsOf(out.Ops))
	out.Note("traced fixpoints %d, untraced %d; unattributed %.3f of %.2fs traced wall",
		len(t.traced), len(out.Ops), lt.Unattributed, t.wall.Seconds())
	out.Note("hot spot: subsume.reduce_cold_s %.4g s against tc.fixpoint_s %.4g s",
		median(t.reduceCold), median(secondsOf(out.Ops)))
	return nil
}
