package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/loadgen"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/tree"
)

// serve-mix: one durable peer serving serveDocs documents of serveItems
// items, a Lookup query service and one push subscription per document,
// over loopback HTTP. Open-loop Poisson arrivals from this process over
// at most serveConns connections; 90% reads (doc 4 : delta 3 : invoke 1
// : hashes 1), 10% pushes of items drawn from a bounded per-document
// pool into the same zipf-hot documents the reads target.
//
// The set-up writes a base journal that holds the first half of every
// pool (and one item more). A run is serveRounds rounds, and each round
// reopens a fresh copy of that journal and replays the same requests: a
// warm-up, the fixed-rate phase, whose pushes grow the documents from
// about serveItems+servePool/2 items towards serveItems+servePool, and a
// short closed-loop phase of requests sent back to back over one
// connection. The latency metrics and the throughput are the better
// quartile over the rounds (see quiet). The
// last round then delivers every pool item and runs the capacity ladder
// on the same full-size documents at every step.

// serveConns is the number of client connections: two, or one on a
// single-CPU machine.
var serveConns = min(maxConns, runtime.NumCPU())

const (
	serveDocs  = 8
	serveItems = 32
	servePool  = 64
	maxConns   = 2
	// serveRate is the fixed rate the latency metrics are measured at:
	// about a fifth of the saturated throughput at the commit that
	// introduced this benchmark. At half of it, queueing amplified every
	// burst of CPU steal on a shared 2-vCPU machine into run-to-run swings
	// of the median of 20% and more; at a fifth they stay near 7%.
	serveRate = 90.0
	// serveLimit is the p99 latency a ladder step must meet. It sits
	// where latency climbs steeply as the peer saturates, so the step
	// that fails it is well defined.
	serveLimit = 100 * time.Millisecond
	// The capacity ladder: rate k is ladderBase * ladderStep^k. The search
	// starts at the step nearest ladderFrom, a little below the capacity
	// at the commit that introduced this benchmark.
	ladderBase  = 50.0
	ladderStep  = 1.05
	ladderTop   = 80
	ladderFrom  = 300.0
	ladderTries = 5 // ladder phases run, repeats included
	// serveRounds is how many times a run replays the same requests on
	// a fresh copy of the same journal (see runServeRound).
	serveRounds = 9
)

// serveMix is the op mix in percent.
var serveMix = []struct {
	op  string
	pct int
}{{"doc", 40}, {"delta", 30}, {"invoke", 10}, {"hashes", 10}, {"push", 10}}

// endpointOf names the server endpoint (peer.http.*.<ep>) of each op.
var endpointOf = map[string]string{"doc": "doc", "delta": "delta", "invoke": "invoke", "hashes": "hash", "push": "push"}

func docName(d int) string { return fmt.Sprintf("d%02d", d) }
func pushID(d int) string  { return "push-" + docName(d) }

// serveInput is the generated data of a seed: the system file and, per
// document, the pool of items pushes draw from.
type serveInput struct {
	src  string
	pool [serveDocs][servePool]item
}

type item struct{ id, val string }

func (it item) tree() *tree.Node {
	return tree.NewLabel("item", tree.NewLabel("id", tree.NewValue(it.id)), tree.NewLabel("val", tree.NewValue(it.val)))
}

func serveInputs(seed int64) *serveInput {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInput{}
	var b strings.Builder
	for d := 0; d < serveDocs; d++ {
		fmt.Fprintf(&b, "doc %s = store{", docName(d))
		for e := 0; e < serveItems; e++ {
			if e > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `item{id{"k%02d-%04d"},val{"v%06d"}}`, d, e, rng.Intn(1_000_000))
		}
		b.WriteString("}\n")
		for k := range in.pool[d] {
			in.pool[d][k] = item{fmt.Sprintf("p%02d-%04d", d, k), fmt.Sprintf("w%06d", rng.Intn(1_000_000))}
		}
	}
	b.WriteString(`func Lookup = hit{id{$k},val{$v}} :- d00/store{item{id{$k},val{$v}}}` + "\n")
	in.src = b.String()
	return in
}

// serveReq is one planned request.
type serveReq struct {
	op       string
	doc, pos int // pos: pool index of a pushed item
}

// planBlock is the block length of a plan: every planBlock consecutive
// requests hold the op mix exactly and the zipf document shares as
// nearly as whole requests can. A run replays one short plan in every
// round, so a plan drawn request by request would carry its own luck of
// the draw (seeds whose 168 requests held 11 to 19 pushes) into every
// round, and the latency median with it.
const planBlock = 20

// zipfS is the skew of document popularity: document k is picked with
// weight (1+k)^-zipfS, the law of loadgen.NewPopularity with v = 1.
const zipfS = 1.2

// servePlan draws n requests of the mix from the seed, by stratified
// sampling within blocks of planBlock requests: each block draws one
// point from every 1/planBlock-wide stratum of the op mix's and the
// document popularity's cumulative shares, and shuffles ops and
// documents independently. Pushes to a document walk its pool from
// index first on, wrapping around.
func servePlan(seed int64, n, first int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	var opCum, docCum []float64
	sum := 0.0
	for _, m := range serveMix {
		sum += float64(m.pct) / 100
		opCum = append(opCum, sum)
	}
	sum = 0
	for k := 0; k < serveDocs; k++ {
		sum += math.Pow(1+float64(k), -zipfS)
		docCum = append(docCum, sum)
	}
	for k := range docCum {
		docCum[k] /= sum
	}
	pick := func(cum []float64, u float64) int {
		return min(len(cum)-1, sort.SearchFloat64s(cum, u))
	}
	next := [serveDocs]int{}
	out := make([]serveReq, 0, n)
	for len(out) < n {
		ops, docs := rng.Perm(planBlock), rng.Perm(planBlock)
		for j := 0; j < planBlock && len(out) < n; j++ {
			op := serveMix[pick(opCum, (float64(ops[j])+rng.Float64())/planBlock)].op
			r := serveReq{op: op, doc: pick(docCum, (float64(docs[j])+rng.Float64())/planBlock)}
			if op == "push" {
				r.pos = (first + next[r.doc]) % servePool
				next[r.doc]++
			}
			out = append(out, r)
		}
	}
	return out
}

// servePeer is the peer under test and its listener.
type servePeer struct {
	p    *peer.Peer
	reg  *obs.Registry
	info peer.RecoveryInfo // what opening the peer recovered
	srv  *http.Server
	done chan struct{}
	url  string
}

// openServe builds the system, opens it as a durable peer in dir with the
// default fsync policy, registers one push subscription per document and
// starts serving on a loopback port.
func openServe(in *serveInput, dir string, tr *Trace) (*servePeer, error) {
	sys, err := core.ParseSystem(in.src)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	opts := []peer.Option{peer.WithDurability(peer.Durability{Dir: dir}), peer.WithObservability(reg)}
	if tr != nil {
		opts = append(opts, peer.WithTracer(tr.Tracer()))
	}
	p, info, err := peer.Open("serve", sys, opts...)
	if err != nil {
		return nil, err
	}
	sub := peer.NewSubscriber(p)
	p.System(func(s *core.System) {
		for d := 0; d < serveDocs; d++ {
			sub.Register(pushID(d), docName(d), s.Document(docName(d)).Root)
		}
	})
	mux := http.NewServeMux()
	mux.Handle(peer.PathPush, sub.Handler())
	mux.Handle("/", p.Handler())
	sp, err := listen(mux)
	if err != nil {
		p.Close()
		return nil, err
	}
	sp.p, sp.reg, sp.info = p, reg, info
	return sp, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*servePeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sp := &servePeer{srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(sp.done)
		sp.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	}()
	return sp, nil
}

// Close stops the listener, waits for it, and closes the peer's journal.
func (sp *servePeer) Close() error {
	err := sp.srv.Close()
	<-sp.done
	if sp.p != nil {
		err = errors.Join(err, sp.p.Close())
	}
	return err
}

// digests names each document's digest.
func (sp *servePeer) digests() map[string]string {
	out := map[string]string{}
	sp.p.System(func(s *core.System) {
		for d := 0; d < serveDocs; d++ {
			out[docName(d)] = digestHex(s.Document(docName(d)).Root)
		}
	})
	return out
}

// serveClient issues the planned requests and checks every answer. Each
// worker keeps its own replica of every document for delta reads.
type serveClient struct {
	in       *serveInput
	cl       *peer.Client
	tr       *Trace
	replicas [maxConns][serveDocs]*tree.Node

	mu      sync.Mutex
	pushed  map[[2]int]bool // (doc, pool index) pushed at least once
	deltas  int
	patches int
	applies []time.Duration
}

func newServeClient(in *serveInput, url string, tr *Trace) *serveClient {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost, t.MaxIdleConnsPerHost = serveConns, serveConns
	return &serveClient{
		in:     in,
		cl:     peer.NewClient(url, &http.Client{Transport: t, Timeout: 30 * time.Second}),
		tr:     tr,
		pushed: map[[2]int]bool{},
	}
}

func digestHex(n *tree.Node) string {
	h := n.Digest()
	return fmt.Sprintf("%x", h[:8])
}

// do performs and checks one request as worker w.
func (c *serveClient) do(ctx context.Context, w int, r serveReq) (err error) {
	ctx, end := c.tr.Start(ctx, "bench.req", r.op)
	defer func() { end(err) }()
	doc := docName(r.doc)
	switch r.op {
	case "doc":
		root, err := c.cl.Doc(ctx, doc)
		if err != nil {
			return err
		}
		if root.Name != "store" || len(root.Children) < serveItems {
			return fmt.Errorf("doc %s: %d children under %q", doc, len(root.Children), root.Name)
		}
	case "delta":
		return c.delta(ctx, w, r.doc)
	case "invoke":
		f, err := c.cl.Invoke(ctx, peer.Envelope{Service: "Lookup"})
		if err != nil {
			return err
		}
		if len(f) < serveItems {
			return fmt.Errorf("Lookup returned %d trees, want at least %d", len(f), serveItems)
		}
	case "hashes":
		h, err := c.cl.Hashes(ctx)
		if err != nil {
			return err
		}
		if len(h) != serveDocs {
			return fmt.Errorf("hashes: %d documents, want %d", len(h), serveDocs)
		}
	case "push":
		if err := c.cl.Push(ctx, pushID(r.doc), tree.Forest{c.in.pool[r.doc][r.pos].tree()}); err != nil {
			return err
		}
		c.mu.Lock()
		c.pushed[[2]int{r.doc, r.pos}] = true
		c.mu.Unlock()
	}
	return nil
}

// delta pulls a document's growth since the worker's replica and applies
// it; the replica must then carry the digest the answer names.
func (c *serveClient) delta(ctx context.Context, w, d int) error {
	rep := c.replicas[w][d]
	from := ""
	if rep != nil {
		from = digestHex(rep)
	}
	dl, err := c.cl.Delta(ctx, docName(d), from)
	if err != nil {
		return err
	}
	var dur time.Duration
	switch dl.Mode {
	case peer.DeltaSame:
	case peer.DeltaFull:
		rep = dl.Full
	case peer.DeltaPatch:
		if rep == nil || dl.From != from {
			return fmt.Errorf("delta %s: patch from %s, replica at %q", docName(d), dl.From, from)
		}
		_, end := c.tr.Start(ctx, "bench.apply", docName(d))
		start := time.Now()
		_, err = peer.ApplyPatch(rep, dl.Patch)
		dur = time.Since(start)
		end(err)
		if err != nil {
			return fmt.Errorf("delta %s: apply: %w", docName(d), err)
		}
	default:
		return fmt.Errorf("delta %s: mode %q", docName(d), dl.Mode)
	}
	if rep == nil || digestHex(rep) != dl.To {
		return fmt.Errorf("delta %s (%s): replica does not reach %s", docName(d), dl.Mode, dl.To)
	}
	c.replicas[w][d] = rep
	c.mu.Lock()
	c.deltas++
	if dl.Mode == peer.DeltaPatch {
		c.patches++
		c.applies = append(c.applies, dur)
	}
	c.mu.Unlock()
	return nil
}

// verify checks that every document holds exactly its initial items and
// the pool items pushed into it. No request may be in flight.
func (c *serveClient) verify(ctx context.Context, out *Outcome) {
	c.mu.Lock()
	pushed := maps.Clone(c.pushed)
	c.mu.Unlock()
	for d := 0; d < serveDocs; d++ {
		root, err := c.cl.Doc(ctx, docName(d))
		if err == nil {
			ids := map[string]bool{}
			for _, it := range root.Children {
				if len(it.Children) > 0 && len(it.Children[0].Children) == 1 {
					ids[it.Children[0].Children[0].Name] = true
				}
			}
			want := serveItems
			for k := 0; k < servePool; k++ {
				if pushed[[2]int{d, k}] {
					want++
					if !ids[c.in.pool[d][k].id] {
						err = fmt.Errorf("doc %s lost pushed item %s", docName(d), c.in.pool[d][k].id)
					}
				}
			}
			if err == nil && (len(ids) != want || len(root.Children) != want) {
				err = fmt.Errorf("doc %s holds %d items, want %d", docName(d), len(root.Children), want)
			}
		}
		out.Check(err)
	}
}

// fill pushes the first n items of every document's pool, one at a time.
func (c *serveClient) fill(ctx context.Context, n int, out *Outcome) {
	for d := 0; d < serveDocs; d++ {
		for k := 0; k < n; k++ {
			out.Check(c.do(ctx, 0, serveReq{op: "push", doc: d, pos: k}))
		}
	}
}

// phase runs one open-loop phase at rate for horizon and counts its
// requests in out. A positive n keeps only the first n arrivals, which
// the horizon must then comfortably hold.
func (c *serveClient) phase(ctx context.Context, seed int64, rate float64, horizon time.Duration, n int, out *Outcome) (OpenLoop, []serveReq) {
	sched := loadgen.PoissonSchedule(seed, rate, horizon)
	if n > 0 && n < len(sched) {
		sched = sched[:n]
	}
	plan := servePlan(seed, len(sched), servePool/2)
	ol := RunOpenLoop(ctx, sched, serveConns, func(ctx context.Context, w, i int) error {
		return c.do(ctx, w, plan[i])
	})
	for _, s := range ol.Samples {
		out.Check(s.Err)
	}
	return ol, plan
}

// backToBack sends requests back to back over one connection for d and
// reports the requests completed per second: the rate one caller gets
// that waits for each answer. Its peer's capacity over serveConns
// connections is what the ladder measures. On a shared 2-vCPU machine
// that figure swung with the load other tenants put on the second CPU:
// its quartiles over ten runs lay 17% of the median apart, those of the
// one-connection rate 6% over five.
func (c *serveClient) backToBack(ctx context.Context, seed int64, d time.Duration, out *Outcome) float64 {
	const most = 1 << 16 // far more than one connection completes in d
	plan := servePlan(seed, most, servePool/2)
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	ol := RunOpenLoop(ctx, make([]time.Duration, most), 1, func(ctx context.Context, w, i int) error {
		return c.do(ctx, w, plan[i])
	})
	for _, s := range ol.Samples {
		out.Check(s.Err)
	}
	return float64(len(ol.Samples)) / ol.Wall.Seconds()
}

// sustained reports whether a ladder step held: no failed request, p99
// within serveLimit, and the generator's lateness at the end of the step
// no worse than at its start.
func sustained(ol OpenLoop) (bool, string) {
	n := len(ol.Samples)
	if n < 8 {
		return false, "too few samples"
	}
	lat := make([]float64, n)
	for i, s := range ol.Samples {
		if s.Err != nil {
			return false, "error: " + s.Err.Error()
		}
		lat[i] = float64(s.Latency) / float64(time.Millisecond)
	}
	sort.Float64s(lat)
	if p99 := Quantile(lat, 0.99); p99 > float64(serveLimit/time.Millisecond) {
		return false, fmt.Sprintf("p99 %.1fms over the limit", p99)
	}
	first, last := median(lateMS(ol.Samples[:n/4])), median(lateMS(ol.Samples[n-n/4:]))
	if last > first+float64(serveLimit/time.Millisecond)/4 {
		return false, fmt.Sprintf("lateness grew from %.2fms to %.2fms", first, last)
	}
	return true, ""
}

func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// capacity searches the ladder for its highest sustained step: in
// strides of five steps from the step nearest ladderFrom, then by
// bisection, running at most ladderTries steps.
func (c *serveClient) capacity(ctx context.Context, seed int64, trial time.Duration, out *Outcome) float64 {
	k0 := int(math.Round(math.Log(ladderFrom/ladderBase) / math.Log(ladderStep)))
	pass, fail := -1, ladderTop+1
	tries := 0
	try := func(k int) bool {
		// A step fails only if it fails twice: one stall near the end of a
		// short step must not end the search.
		ok := false
		for attempt := int64(0); attempt < 2 && !ok && tries < ladderTries; attempt++ {
			tries++
			ol, _ := c.phase(ctx, seed*1000+100+2*int64(k)+attempt, ladderRate(k), trial, 0, out)
			var why string
			ok, why = sustained(ol)
			out.Note("ladder %7.1f req/s: sustained=%v %s", ladderRate(k), ok, why)
		}
		if ok {
			pass = max(pass, k)
		} else {
			fail = min(fail, k)
		}
		return ok
	}
	for k := k0; k >= 0 && k <= ladderTop && tries < ladderTries; {
		if try(k) {
			if fail <= ladderTop {
				break
			}
			k += 5
		} else {
			if pass >= 0 {
				break
			}
			k -= 5
		}
	}
	for fail-pass > 1 && pass >= 0 && tries < ladderTries {
		try((pass + fail) / 2)
	}
	if pass < 0 {
		return ladderRate(0) / ladderStep // below the ladder
	}
	return ladderRate(pass)
}

// serveBase is the journal every round starts from, and what it holds.
type serveBase struct {
	dir    string
	want   map[string]string // document digests when it was closed
	pushed map[[2]int]bool   // pool items it holds
}

// prepareServe opens a durable peer on the empty directory dir (a set-up
// sample), pushes the first half of every pool and one item more, and
// closes it. The fill's serveDocs*servePool/2 records end on a snapshot
// (one every peer.DefaultSnapshotEvery records); the one more item per
// document leaves serveDocs records after it, so opening the journal
// recovers both.
func prepareServe(in *serveInput, dir string, out *Outcome) (*serveBase, error) {
	ctx := context.Background()
	start := time.Now()
	sp, err := openServe(in, dir, nil)
	if err != nil {
		return nil, err
	}
	out.Setup = append(out.Setup, time.Since(start))
	c := newServeClient(in, sp.url, nil)
	c.fill(ctx, servePool/2, out)
	for d := 0; d < serveDocs; d++ {
		out.Check(c.do(ctx, 0, serveReq{op: "push", doc: d, pos: servePool / 2}))
	}
	base := &serveBase{dir: dir, want: sp.digests(), pushed: c.pushed}
	return base, sp.Close()
}

// copyFiles copies the regular files of directory from into the new
// directory to.
func copyFiles(from, to string) error {
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	if err := os.Mkdir(to, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// roundPlan is what one round runs after its warm-up.
type roundPlan struct {
	fixedN     int           // requests of the fixed-rate phase
	backToBack time.Duration // closed-loop phase after it (0: none)
	ladder     time.Duration // per capacity-ladder step (0: no ladder)
	warmup     time.Duration
}

// serveRound is one round: a durable peer reopened from a copy of the
// base journal, warmed up, and driven through the fixed-rate phase and
// what else its plan asks for.
type serveRound struct {
	fixed      OpenLoop
	plan       []serveReq
	capacity   float64
	throughput float64
	diff       map[string]float64 // registry change over the fixed phase
	client     *serveClient
	wall       time.Duration
	gcPause    time.Duration
	window     [2]int64 // tracer clock (µs) at the fixed phase's start and end
	info       peer.RecoveryInfo
}

// runServeRound copies the base journal to dir, reopens it as the peer
// under test (a set-up sample), checks that it recovered exactly the
// documents the base closed with, and runs the round. Every round
// replays the same requests from the same documents, so rounds differ
// only in how the machine treated them.
func runServeRound(cfg Config, in *serveInput, base *serveBase, dir string, tr *Trace, rp roundPlan, out *Outcome) (*serveRound, error) {
	ctx := context.Background()
	if err := copyFiles(base.dir, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	sp, err := openServe(in, dir, tr)
	if err != nil {
		return nil, err
	}
	out.Setup = append(out.Setup, time.Since(start))
	defer sp.Close()
	if got := sp.digests(); !sp.info.Recovered || !maps.Equal(got, base.want) {
		out.Check(fmt.Errorf("serve: reopen %d recovered other documents than the base closed with", len(out.Setup)-1))
	} else {
		out.Check(nil)
	}
	c := newServeClient(in, sp.url, tr)
	c.pushed = maps.Clone(base.pushed)
	r := &serveRound{client: c, info: sp.info}

	// Warm-up: connections and caches.
	c.phase(ctx, cfg.Seed*1000+1, serveRate, rp.warmup, 0, out)
	c.mu.Lock()
	c.deltas, c.patches, c.applies = 0, 0, nil // count the fixed phase only
	c.mu.Unlock()
	before := obs.FlattenSnapshot(sp.reg)
	gc0 := gcPauses()
	start = time.Now()
	r.window[0] = tr.Tracer().Now()
	horizon := time.Duration(2 * float64(rp.fixedN) / serveRate * float64(time.Second))
	r.fixed, r.plan = c.phase(ctx, cfg.Seed*1000+2, serveRate, horizon, rp.fixedN, out)
	r.window[1] = tr.Tracer().Now()
	r.wall = time.Since(start)
	r.gcPause = gcPauses() - gc0
	r.diff = obs.DiffVars(before, obs.FlattenSnapshot(sp.reg))
	if len(r.fixed.Samples) != rp.fixedN {
		out.Check(fmt.Errorf("serve: fixed phase completed %d of %d requests", len(r.fixed.Samples), rp.fixedN))
	}
	if rp.backToBack > 0 {
		r.throughput = c.backToBack(ctx, cfg.Seed*1000+3, rp.backToBack, out)
	}
	if rp.ladder > 0 {
		c.fill(ctx, servePool, out)
		r.capacity = c.capacity(ctx, cfg.Seed, rp.ladder, out)
	}
	c.verify(ctx, out)
	out.HeapMiB = heapMiB()
	runtime.KeepAlive(sp)
	return r, nil
}

// latencies splits the fixed phase's latencies by op.
func (s *serveRound) latencies() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, smp := range s.fixed.Samples {
		op := s.plan[smp.Index].op
		out[op] = append(out[op], smp.Latency)
		if op != "push" {
			out["read"] = append(out["read"], smp.Latency)
		}
		out["all"] = append(out["all"], smp.Latency)
	}
	return out
}

func runServe(cfg Config) (*Outcome, error) {
	out := &Outcome{Layer: map[string]float64{}}
	in := serveInputs(cfg.Seed)
	out.Note("serve-mix: %d docs x %d items, pool %d per doc, %d connections, fixed rate %.0f req/s, p99 limit %v, fsync every journal record",
		serveDocs, serveItems, servePool, serveConns, serveRate, serveLimit)
	base, err := prepareServe(in, filepath.Join(cfg.Dir, "serve-base"), out)
	if err != nil {
		return nil, err
	}
	round := func(tr *Trace, rp roundPlan) (*serveRound, error) {
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("serve-%d", len(out.Setup)))
		return runServeRound(cfg, in, base, dir, tr, rp, out)
	}
	if !cfg.Trace {
		rp := roundPlan{
			fixedN:     max(1, int(serveRate*cfg.Duration.Seconds()/16)),
			backToBack: cfg.Duration / 75,
			warmup:     cfg.Duration / 60,
		}
		lat := map[string][]time.Duration{}
		var throughput []float64
		var last *serveRound
		for i := 0; i < serveRounds; i++ {
			if i == serveRounds-1 {
				rp.ladder = cfg.Duration / 60
			}
			r, err := round(nil, rp)
			if err != nil {
				return nil, err
			}
			for op, ds := range r.latencies() {
				lat[op] = append(lat[op], ds...)
			}
			throughput = append(throughput, r.throughput)
			out.Note("round %d: back-to-back throughput %.1f req/s, generator backlog max %d, lateness %s",
				i+1, r.throughput, r.fixed.BacklogMax, lateSummary(r.fixed))
			last = r
		}
		out.Note("serve recovery: snapshot seq %d, %d journal records replayed", last.info.SnapshotSeq, last.info.Replayed)
		out.Ops, out.Windows = lat["all"], serveRounds
		out.OpsPerSec = quiet(throughput, true)
		for _, c := range []struct{ name, ops string }{{"read", "read"}, {"write", "push"}} {
			ms := sorted(durationsMS(lat[c.ops]))
			out.Note("serve.%s_p50_ms %.4g ms", c.name, Quantile(ms, 0.5))
			out.Note("serve.%s_p99_ms %.4g ms (%s)", c.name, Quantile(ms, 0.99), Summarize(ms))
		}
		out.Note("serve.capacity_rps %.1f req/s (highest ladder step held: p99 <= %v, no error, no growing lateness)",
			last.capacity, serveLimit)
		out.Note("back-to-back throughput %.1f req/s over one connection (%s)", out.OpsPerSec, Summarize(throughput))
		return out, nil
	}

	// Traced: the same rounds, untraced, traced, untraced. The overhead
	// ratio compares the traced round with the untraced ones around it,
	// so a drift in machine speed cancels out.
	rp := roundPlan{fixedN: max(1, int(serveRate*cfg.Duration.Seconds()/5)), warmup: cfg.Duration / 30}
	before, err := round(nil, rp)
	if err != nil {
		return nil, err
	}
	out.Trace = newTrace()
	s, err := round(out.Trace, rp)
	if err != nil {
		return nil, err
	}
	after, err := round(nil, rp)
	if err != nil {
		return nil, err
	}
	untraced := append(before.latencies()["all"], after.latencies()["all"]...)
	spans, err := out.Trace.Spans()
	if err != nil {
		return nil, err
	}
	spans = within(spans, s.window)
	n := float64(len(s.fixed.Samples))
	L := out.Layer
	lat := s.latencies()
	for _, op := range peerOps {
		ms := sorted(durationsMS(lat[op]))
		ep := endpointOf[op]
		L["peer."+op+"_p50_ms"] = Quantile(ms, 0.5)
		L["peer."+op+"_p99_ms"] = Quantile(ms, 0.99)
		if cnt := s.diff["peer.http.latency_ns."+ep+".count"]; cnt > 0 {
			L["peer."+op+"_busy_ms"] = s.diff["peer.http.latency_ns."+ep+".sum"] / cnt / 1e6
			bytes := s.diff["peer.http.bytes_out."+ep]
			if op == "push" {
				bytes = s.diff["peer.http.bytes_in."+ep]
			}
			L["peer."+op+"_bytes"] = bytes / cnt
		}
	}
	c := s.client
	c.mu.Lock()
	L["replication.delta_patch_ratio"] = float64(c.patches) / math.Max(1, float64(c.deltas))
	if len(c.applies) > 0 {
		var sum time.Duration
		for _, d := range c.applies {
			sum += d
		}
		L["replication.apply_ms"] = float64(sum) / float64(len(c.applies)) / 1e6
	}
	c.mu.Unlock()
	if pushes := s.diff["peer.http.requests.push"]; pushes > 0 {
		L["subsume.push_useful_ratio"] = s.diff["peer.converge.advances"] / pushes
	}
	L["journal.appends"] = s.diff["journal.appends"] / n
	L["journal.fsyncs"] = s.diff["journal.fsyncs"] / n
	L["journal.fsync_s"] = s.diff["journal.fsync_ns.sum"] / 1e9 / n
	L["journal.bytes"] = s.diff["journal.bytes"] / n
	L["loadgen.late_p99_ms"] = Quantile(sorted(lateMS(append(before.fixed.Samples, after.fixed.Samples...))), 0.99)
	L["loadgen.backlog_max"] = float64(max(before.fixed.BacklogMax, after.fixed.BacklogMax))
	L["runtime.gc_pause_s"] = s.gcPause.Seconds() / n
	fillLayers(L, Attribute(spans, s.wall), n, len(spans))
	L["trace.overhead_ratio"] = median(durationsMS(lat["all"])) / median(durationsMS(untraced))
	out.Note("hot spot: peer.hashes_busy_ms %.4g against peer.delta_busy_ms %.4g",
		L["peer.hashes_busy_ms"], L["peer.delta_busy_ms"])
	return out, nil
}

// within keeps the spans that started inside the window.
func within(spans []obs.Span, window [2]int64) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.TSUs >= window[0] && s.TSUs <= window[1] {
			out = append(out, s)
		}
	}
	return out
}

func sorted(xs []float64) []float64 {
	sort.Float64s(xs)
	return xs
}

func lateMS(ss []Sample) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.Late) / float64(time.Millisecond)
	}
	return xs
}

func lateSummary(ol OpenLoop) string { return Summarize(lateMS(ol.Samples)).String() + " ms" }
