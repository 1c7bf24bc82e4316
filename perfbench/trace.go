package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/tree"
)

// Trace buffers every span of a traced run in memory: the benchmark's own
// spans around each call into a layer, and the spans the engine and the
// peers already emit, routed here through RunOptions.Tracer and
// peer.WithTracer. All of them share one obs.Tracer, so one clock. A nil
// *Trace is the untraced run: every method is a no-op.
type Trace struct {
	buf bytes.Buffer // written only under tr's lock
	tr  *obs.Tracer
}

func newTrace() *Trace {
	t := &Trace{}
	t.tr = obs.NewTracer(&t.buf)
	return t
}

// Tracer is the sink to hand to the program (nil when untraced).
func (t *Trace) Tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// Start opens a benchmark span of the given kind as a child of the span
// riding ctx (a new trace root when there is none). The returned context
// carries the new span, so calls made with it parent their own spans,
// across the wire too; end closes the span.
func (t *Trace) Start(ctx context.Context, kind, name string) (_ context.Context, end func(err error)) {
	if t == nil {
		return ctx, func(error) {}
	}
	parent := obs.SpanFromContext(ctx)
	sc := obs.NewTrace()
	if parent.Valid() {
		sc = parent.NewChild()
	}
	ts, start := t.tr.Now(), time.Now()
	return obs.ContextWithSpan(ctx, sc), func(err error) {
		s := obs.Span{Kind: kind, Name: name, TSUs: ts, DurUs: time.Since(start).Microseconds()}.WithContext(sc, parent)
		if err != nil {
			s.Err = err.Error()
		}
		t.tr.Emit(s)
	}
}

// Spans decodes everything recorded so far. Call it once the traced work
// has finished.
func (t *Trace) Spans() ([]obs.Span, error) {
	if t == nil {
		return nil, nil
	}
	if err := t.tr.Err(); err != nil {
		return nil, err
	}
	var out []obs.Span
	sc := bufio.NewScanner(bytes.NewReader(t.buf.Bytes()))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var s obs.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("decode span: %w", err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// WriteFile writes the recorded spans, one JSON object per line.
func (t *Trace) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	return os.WriteFile(path, t.buf.Bytes(), 0o644)
}

// layerOf maps a span kind to the layer it measures. Benchmark spans are
// named bench.<call>; the others are the program's own span kinds.
var layerOf = map[string]string{
	"bench.req":      "client",
	"bench.fixpoint": "peer",
	"bench.rt":       "peer",
	"http":           "peer",
	"bench.run":      "core",
	"sweep":          "core",
	"drain":          "core",
	"merge":          "core",
	"call":           "query",
	"bench.snapshot": "query",
	"bench.reduce":   "subsume",
	"bench.apply":    "replication",
	"sync":           "replication",
	"push":           "replication",
	"fsync":          "journal",
	"snapshot":       "journal",
}

// Layers lists the layers in report order.
var Layers = []string{"client", "peer", "core", "query", "subsume", "replication", "journal"}

// LayerTimes is the busy and self time of every layer, and the share of
// the traced wall time no span covers.
type LayerTimes struct {
	Busy, Self   map[string]time.Duration
	Unattributed float64
}

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by ivs (which it sorts).
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64 = 0, -1 << 62
	for _, iv := range ivs {
		if iv.hi <= end {
			continue
		}
		if iv.lo < end {
			iv.lo = end
		}
		total += iv.hi - iv.lo
		end = iv.hi
	}
	return total
}

// Attribute computes per-layer busy time (summed durations of the spans
// that enter the layer from another one) and self time (summed span
// durations minus the part covered by child spans), and the share of
// wall not covered by any root span. Children are found by the spans'
// causal parent links. Spans the program emits without a trace identity
// (journal fsyncs and compactions) are attached to the shortest span
// that contains them in time; they only ever run inside a peer handler.
func Attribute(spans []obs.Span, wall time.Duration) LayerTimes {
	lt := LayerTimes{Busy: map[string]time.Duration{}, Self: map[string]time.Duration{}}
	iv := make([]interval, len(spans))
	byID := make(map[string]int, len(spans))
	for i, s := range spans {
		lo := s.TSUs
		if s.Kind == "fsync" {
			lo -= s.DurUs // the journal stamps fsync spans when they end
		}
		iv[i] = interval{lo, lo + s.DurUs}
		if s.Span != "" {
			byID[s.Span] = i
		}
	}
	parent := make([]int, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if p, ok := byID[s.Parent]; ok {
			parent[i] = p
			continue
		}
		if s.Span != "" || strings.HasPrefix(s.Kind, "bench.") {
			continue // a root
		}
		best := int64(-1)
		for j, o := range spans {
			d := iv[j].hi - iv[j].lo
			if j != i && o.Span != "" && iv[j].lo <= iv[i].lo && iv[i].hi <= iv[j].hi && (best < 0 || d < best) {
				best, parent[i] = d, j
			}
		}
	}
	// A child is charged to its nearest ancestor whose interval holds its
	// start: an engine merge is the causal child of its call span but runs
	// after the evaluation the call span times, inside the sweep.
	children := make([][]interval, len(spans))
	eff := make([]int, len(spans))
	var roots []interval
	for i, p := range parent {
		for p >= 0 && !(iv[p].lo <= iv[i].lo && iv[i].lo < iv[p].hi) {
			p = parent[p]
		}
		eff[i] = p
		if p < 0 {
			if parent[i] < 0 {
				roots = append(roots, iv[i])
			}
		} else if c := (interval{iv[i].lo, min(iv[i].hi, iv[p].hi)}); c.hi > c.lo {
			children[p] = append(children[p], c)
		}
	}
	for i, s := range spans {
		layer := layerOf[s.Kind]
		d := time.Duration(iv[i].hi-iv[i].lo) * time.Microsecond
		lt.Self[layer] += d - time.Duration(unionLen(children[i]))*time.Microsecond
		if eff[i] < 0 || layerOf[spans[eff[i]].Kind] != layer {
			lt.Busy[layer] += d
		}
	}
	if wall > 0 {
		covered := time.Duration(unionLen(roots)) * time.Microsecond
		lt.Unattributed = max(0, 1-covered.Seconds()/wall.Seconds())
	}
	return lt
}

// fillLayers reports each layer's busy and self time per op, the
// unattributed share and the span count per op.
func fillLayers(L map[string]float64, lt LayerTimes, ops float64, spans int) {
	for _, l := range Layers {
		L[l+".busy_s"] = lt.Busy[l].Seconds() / ops
		L[l+".self_s"] = lt.Self[l].Seconds() / ops
	}
	L["trace.unattributed_ratio"] = lt.Unattributed
	L["trace.spans"] = float64(spans) / ops
}

// gcPauses reads the runtime's cumulative stop-the-world pause time.
func gcPauses() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// timedTransport times every round trip through it and records it as a
// bench.rt span whose traceparent it forwards, so the server's span
// becomes the round trip's child. The time runs until the response body
// is closed, so decoding the body counts.
type timedTransport struct {
	base  http.RoundTripper
	trace *Trace

	mu    sync.Mutex
	total map[string]time.Duration // by endpoint: sweep, hash, invoke, ...
	calls map[string]int
}

func newTimedClient(t *Trace) (*http.Client, *timedTransport) {
	tt := &timedTransport{
		base:  http.DefaultTransport,
		trace: t,
		total: map[string]time.Duration{},
		calls: map[string]int{},
	}
	return &http.Client{Transport: tt, Timeout: 30 * time.Second}, tt
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := strings.TrimPrefix(req.URL.Path, "/axml/")
	ep, _, _ = strings.Cut(ep, "/")
	ctx, end := tt.trace.Start(req.Context(), "bench.rt", ep)
	req = req.Clone(ctx)
	if tp := obs.SpanFromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	finish := func() {
		d := time.Since(start)
		tt.mu.Lock()
		tt.total[ep] += d
		tt.calls[ep]++
		tt.mu.Unlock()
		end(err)
	}
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: finish}
	return resp, nil
}

// Totals returns the summed round-trip time and call count per endpoint.
func (tt *timedTransport) Totals() (map[string]time.Duration, map[string]int) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	total := make(map[string]time.Duration, len(tt.total))
	calls := make(map[string]int, len(tt.calls))
	for k, v := range tt.total {
		total[k] = v
	}
	for k, v := range tt.calls {
		calls[k] = v
	}
	return total, calls
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// countingService counts the trees a service returns. It implements
// core.Wrapper and hands the Binding (Since and Indexes included) to the
// wrapped service unchanged, so the engine still recognises a wrapped
// QueryService as declarative and runs the same path as without it.
type countingService struct {
	core.Service
	trees atomic.Int64
}

func (c *countingService) Unwrap() core.Service { return c.Service }

func (c *countingService) Invoke(ctx context.Context, b core.Binding) (tree.Forest, error) {
	f, err := c.Service.Invoke(ctx, b)
	c.trees.Add(int64(len(f)))
	return f, err
}
