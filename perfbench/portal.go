package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// portal-fixpoint: the Section 1 jazz portal across two peers. A ratings
// peer serves GetRating over portalK entries; a durable portal peer holds
// portalK cd{title,!GetRating} entries bound to a peer.RemoteService; a
// peer.Coordinator drives both to the global fixpoint.
const portalK = 512

// portalRecoveries is how many times an untraced run reopens the portal
// from its journal to time recovery.
const portalRecoveries = 3

const getRating = `func GetRating = rating{$s} :- context/cd{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}`

// portalInput is the generated data of a seed.
type portalInput struct {
	ratings, portal string            // system files of the two peers
	stars           map[string]string // title -> rating
}

func portalInputs(seed int64) *portalInput {
	rng := rand.New(rand.NewSource(seed))
	in := &portalInput{stars: map[string]string{}}
	titles := make([]string, 0, portalK)
	for len(titles) < portalK {
		t := fmt.Sprintf("t%06d", rng.Intn(1_000_000))
		if in.stars[t] == "" {
			in.stars[t] = fmt.Sprint(1 + rng.Intn(5))
			titles = append(titles, t)
		}
	}
	entries := make([]string, len(titles))
	for i, t := range titles {
		entries[i] = fmt.Sprintf(`entry{title{"%s"},stars{"%s"}}`, t, in.stars[t])
	}
	rng.Shuffle(len(titles), func(i, j int) { titles[i], titles[j] = titles[j], titles[i] })
	cds := make([]string, len(titles))
	for i, t := range titles {
		cds[i] = fmt.Sprintf(`cd{title{"%s"},!GetRating}`, t)
	}
	in.ratings = fmt.Sprintf("doc ratings = db{%s}\n%s\n", strings.Join(entries, ","), getRating)
	in.portal = fmt.Sprintf("doc directory = directory{%s}\n", strings.Join(cds, ","))
	return in
}

// portalReference is the fixpoint of the same documents in one System
// with GetRating local: by Theorem 2.1 the distributed run must reach the
// same directory.
func portalReference(in *portalInput) (*tree.Node, error) {
	s, err := core.ParseSystem(in.ratings + in.portal)
	if err != nil {
		return nil, err
	}
	if res := s.Run(core.RunOptions{}); !res.Terminated || res.Err != nil {
		return nil, fmt.Errorf("portal: reference run did not terminate (err %v)", res.Err)
	}
	return s.Document("directory").Root, nil
}

// portalPeers is one set-up of the two peers.
type portalPeers struct {
	ratings, portal   *servePeer
	ratingsReg, reg   *obs.Registry
	remote            *countingService // traced only
	coordRT, remoteRT *timedTransport  // traced only
	dir               string
}

func (pp *portalPeers) Close() error {
	err := errors.Join(pp.portal.Close(), pp.ratings.Close())
	return errors.Join(err, os.RemoveAll(pp.dir))
}

// openPortal starts the ratings peer (in memory) and the durable portal
// peer, whose GetRating is a RemoteService on the ratings peer. Traced,
// both peers emit spans to tr and the RemoteService's and coordinator's
// clients time every round trip.
func openPortal(in *portalInput, dir string, tr *Trace) (*portalPeers, error) {
	pp := &portalPeers{ratingsReg: obs.NewRegistry(), dir: dir}
	rsys, err := core.ParseSystem(in.ratings)
	if err != nil {
		return nil, err
	}
	rp, _, err := peer.Open("ratings", rsys, traceOpt(tr, peer.WithObservability(pp.ratingsReg))...)
	if err != nil {
		return nil, err
	}
	if pp.ratings, err = listen(rp.Handler()); err != nil {
		return nil, err
	}
	pp.ratings.p = rp
	if _, err := pp.openPortal(in, tr); err != nil {
		pp.ratings.Close()
		return nil, err
	}
	return pp, nil
}

func traceOpt(tr *Trace, opts ...peer.Option) []peer.Option {
	if tr != nil {
		opts = append(opts, peer.WithTracer(tr.Tracer()))
	}
	return opts
}

// openPortal opens the durable portal peer on pp.dir, recovering what
// its journal holds, and starts serving it.
func (pp *portalPeers) openPortal(in *portalInput, tr *Trace) (peer.RecoveryInfo, error) {
	spec, err := syntax.ParseSystem(in.portal)
	if err != nil {
		return peer.RecoveryInfo{}, err
	}
	// GetRating is remote, so the system is assembled here: core.FromSpec
	// would reject the document's call to a service it does not define.
	psys := core.NewSystem()
	for _, d := range spec.Docs {
		if err := psys.AddDocument(d); err != nil {
			return peer.RecoveryInfo{}, err
		}
	}
	var svc core.Service = &peer.RemoteService{Name: "GetRating", URL: pp.ratings.url}
	if tr != nil {
		var client *http.Client
		client, pp.remoteRT = newTimedClient(tr)
		svc.(*peer.RemoteService).Client = client
		pp.remote = &countingService{Service: svc}
		svc = pp.remote
	}
	if err := psys.AddService(svc); err != nil {
		return peer.RecoveryInfo{}, err
	}
	pp.reg = obs.NewRegistry()
	p, info, err := peer.Open("portal", psys, traceOpt(tr,
		peer.WithDurability(peer.Durability{Dir: pp.dir}), peer.WithObservability(pp.reg))...)
	if err != nil {
		return info, err
	}
	if pp.portal, err = listen(p.Handler()); err != nil {
		p.Close()
		return info, err
	}
	pp.portal.p = p
	return info, nil
}

// recover closes the portal peer and reopens it from its data directory.
// The recovered directory must be the reference fixpoint again.
func (pp *portalPeers) recover(in *portalInput, ref *tree.Node) (time.Duration, peer.RecoveryInfo, error) {
	if err := pp.portal.Close(); err != nil {
		return 0, peer.RecoveryInfo{}, err
	}
	start := time.Now()
	info, err := pp.openPortal(in, nil)
	d := time.Since(start)
	if err != nil {
		return d, info, err
	}
	if !info.Recovered {
		return d, info, fmt.Errorf("portal: reopen recovered nothing")
	}
	pp.portal.p.System(func(s *core.System) {
		if s.Document("directory").Root.Digest() != ref.Digest() {
			err = fmt.Errorf("portal: recovered directory differs from the fixpoint")
		}
	})
	return d, info, err
}

// fixpoint drives both peers to the global fixpoint.
func (pp *portalPeers) fixpoint(tr *Trace) (time.Duration, error) {
	co := &peer.Coordinator{URLs: []string{pp.portal.url, pp.ratings.url}}
	if tr != nil {
		co.Client, pp.coordRT = newTimedClient(tr)
	}
	ctx, end := tr.Start(context.Background(), "bench.fixpoint", "portal")
	start := time.Now()
	res, err := co.RunToFixpoint(ctx)
	d := time.Since(start)
	end(err)
	if err == nil && !res.Terminated {
		err = fmt.Errorf("portal: no fixpoint after %d rounds", res.Rounds)
	}
	return d, err
}

// check compares the portal's directory with the reference and checks
// that every cd carries its rating.
func (pp *portalPeers) check(in *portalInput, ref *tree.Node) (nodes int, err error) {
	pp.portal.p.System(func(s *core.System) {
		nodes = s.Size()
		root := s.Document("directory").Root
		if root.Digest() != ref.Digest() {
			err = fmt.Errorf("portal: directory digest differs from the single-System fixpoint")
			return
		}
		for _, cd := range root.Children {
			title, rating := "", ""
			for _, c := range cd.Children {
				if len(c.Children) == 1 && c.Children[0].Kind == tree.Value {
					switch c.Name {
					case "title":
						title = c.Children[0].Name
					case "rating":
						rating = c.Children[0].Name
					}
				}
			}
			if rating == "" || rating != in.stars[title] {
				err = fmt.Errorf("portal: cd %q has rating %q, want %q", title, rating, in.stars[title])
				return
			}
		}
	})
	pp.ratings.p.System(func(s *core.System) { nodes += s.Size() })
	return nodes, err
}

func runPortal(cfg Config) (*Outcome, error) {
	out := &Outcome{Layer: map[string]float64{}}
	in := portalInputs(cfg.Seed)
	ref, err := portalReference(in)
	if err != nil {
		return nil, err
	}
	out.Note("portal-fixpoint: K=%d cds, ratings peer in memory, durable portal peer (fsync every journal record)", portalK)

	// A traced run alternates untraced and traced fixpoints, so that the
	// overhead ratio compares neighbours in time.
	var pt *portalTraced
	if cfg.Trace {
		pt = &portalTraced{tr: newTrace(), in: in, ref: ref, sum: map[string]float64{}}
		out.Trace = pt.tr
	}
	var busy time.Duration
	var last *portalPeers
	deadline := time.Now().Add(cfg.Duration)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ { // a traced run needs one of each
		if last != nil {
			if err := last.Close(); err != nil {
				return nil, err
			}
			last = nil
		}
		if pt != nil && i%2 == 1 {
			if err := pt.fixpoint(filepath.Join(cfg.Dir, fmt.Sprintf("portal-%d", i)), out); err != nil {
				return nil, err
			}
			continue
		}
		start := time.Now()
		pp, err := openPortal(in, filepath.Join(cfg.Dir, fmt.Sprintf("portal-%d", i)), nil)
		if err != nil {
			return nil, err
		}
		out.Setup = append(out.Setup, time.Since(start))
		last = pp
		d, err := pp.fixpoint(nil)
		if err == nil {
			_, err = pp.check(in, ref)
		}
		out.Check(err)
		out.Ops = append(out.Ops, d)
		busy += d
	}
	if !cfg.Trace {
		// Set-up includes recovery. Reopening a portal from the journal of
		// a fixpoint takes longer than the fixpoint itself, so it is timed
		// portalRecoveries times after the measured loop, on the last
		// untraced peers, and its median is added to every set-up.
		var recovery []time.Duration
		var info peer.RecoveryInfo
		for r := 0; r < portalRecoveries; r++ {
			var rec time.Duration
			rec, info, err = last.recover(in, ref)
			out.Check(err)
			if err != nil {
				return nil, err
			}
			recovery = append(recovery, rec)
		}
		rec := Summarize(secondsOf(recovery))
		for i := range out.Setup {
			out.Setup[i] += time.Duration(rec.P50 * float64(time.Second))
		}
		out.Note("portal recovery from a fixpoint's journal (snapshot seq %d, %d records replayed): %s s",
			info.SnapshotSeq, info.Replayed, rec)
	}
	out.OpsPerSec = float64(len(out.Ops)) / busy.Seconds()
	fix := Summarize(secondsOf(out.Ops))
	out.Note("portal.fixpoint_s %.4g s (%s)", fix.P50, fix)
	out.HeapMiB = heapMiB()
	runtime.KeepAlive(last) // the last untraced peers count as live
	if last != nil {
		if err := last.Close(); err != nil {
			return nil, err
		}
	}
	if pt != nil {
		return out, pt.report(out)
	}
	return out, nil
}

// portalTraced accumulates the traced fixpoints of a traced run.
type portalTraced struct {
	tr            *Trace
	in            *portalInput
	ref           *tree.Node
	traced        []float64
	sum           map[string]float64
	wall, gcPause time.Duration
}

// fixpoint sets up traced peers in dir, drives them to the fixpoint,
// checks the result and adds up the peers' registries and round trips.
func (t *portalTraced) fixpoint(dir string, out *Outcome) error {
	start, gc0 := time.Now(), gcPauses()
	defer func() {
		t.wall += time.Since(start)
		t.gcPause += gcPauses() - gc0
	}()
	pp, err := openPortal(t.in, dir, t.tr)
	if err != nil {
		return err
	}
	d, err := pp.fixpoint(t.tr)
	nodes := 0
	if err == nil {
		nodes, err = pp.check(t.in, t.ref)
	}
	out.Check(err)
	t.traced = append(t.traced, d.Seconds())
	sum := t.sum
	counter := func(reg *obs.Registry, name string) float64 { return float64(reg.Counter(name).Value()) }
	for _, reg := range []*obs.Registry{pp.reg, pp.ratingsReg} {
		sum["fired"] += counter(reg, "engine.calls.fired")
		sum["sterile"] += counter(reg, "engine.calls.sterile")
		sum["steps"] += counter(reg, "engine.steps")
		sum["deltas"] += counter(reg, "engine.delta_evals")
		sum["hits"] += counter(reg, "engine.index.hits")
		sum["lookups"] += counter(reg, "engine.index.hits") + counter(reg, "engine.index.misses")
		sum["merge_wait"] += float64(reg.Histogram("engine.merge_wait_ns").Snapshot().Sum) / 1e9
	}
	sum["appends"] += counter(pp.reg, "journal.appends")
	sum["fsyncs"] += counter(pp.reg, "journal.fsyncs")
	sum["fsync_s"] += float64(pp.reg.Histogram("journal.fsync_ns").Snapshot().Sum) / 1e9
	sum["jbytes"] += counter(pp.reg, "journal.bytes")
	sum["serve_invoke"] += float64(pp.ratingsReg.Histogram("peer.http.latency_ns.invoke").Snapshot().Sum) / 1e9
	sum["trees"] += float64(pp.remote.trees.Load())
	sum["nodes"] += float64(nodes)
	for _, rt := range []*timedTransport{pp.coordRT, pp.remoteRT} {
		total, calls := rt.Totals()
		for ep, d := range total {
			sum["rt_"+ep] += d.Seconds()
			sum["calls_"+ep] += float64(calls[ep])
		}
	}
	return pp.Close()
}

// report fills the per-layer metrics, per traced fixpoint.
func (t *portalTraced) report(out *Outcome) error {
	if len(t.traced) == 0 {
		return fmt.Errorf("portal: no traced fixpoint completed")
	}
	spans, err := t.tr.Spans()
	if err != nil {
		return err
	}
	sum := t.sum
	n := float64(len(t.traced))
	var merge, eval float64
	for _, s := range spans {
		switch s.Kind {
		case "merge":
			merge += float64(s.DurUs) / 1e6
		case "call":
			eval += float64(s.DurUs) / 1e6
		}
	}
	L := out.Layer
	L["core.calls_fired"] = sum["fired"] / n
	L["core.calls_sterile"] = sum["sterile"] / n
	L["core.steps"] = sum["steps"] / n
	L["core.delta_evals"] = sum["deltas"] / n
	L["core.useful_ratio"] = sum["steps"] / max(1, sum["fired"])
	L["core.merge_s"] = merge / n
	L["core.merge_wait_s"] = sum["merge_wait"] / n
	L["query.eval_s"] = eval / n
	L["query.trees_returned"] = sum["trees"] / n
	L["query.useful_ratio"] = portalK * n / max(1, sum["trees"])
	L["pattern.index_hit_ratio"] = sum["hits"] / max(1, sum["lookups"])
	L["tree.nodes"] = sum["nodes"] / n
	L["peer.sweep_s"] = sum["rt_sweep"] / n
	L["peer.hash_s"] = sum["rt_hash"] / n
	L["peer.invoke_s"] = sum["rt_invoke"] / n
	L["peer.invoke_calls"] = sum["calls_invoke"] / n
	L["peer.serve_invoke_s"] = sum["serve_invoke"] / n
	L["journal.appends"] = sum["appends"] / n
	L["journal.fsyncs"] = sum["fsyncs"] / n
	L["journal.fsync_s"] = sum["fsync_s"] / n
	L["journal.bytes"] = sum["jbytes"] / n
	L["runtime.gc_pause_s"] = t.gcPause.Seconds() / n
	lt := Attribute(spans, t.wall)
	fillLayers(L, lt, n, len(spans))
	L["trace.overhead_ratio"] = median(t.traced) / median(secondsOf(out.Ops))
	out.Note("traced fixpoints %d, untraced %d; unattributed %.3f of %.2fs traced wall (set-up included)",
		len(t.traced), len(out.Ops), lt.Unattributed, t.wall.Seconds())
	out.Note("hot spot: core.calls_fired %.0f per fixpoint for core.steps %.0f", L["core.calls_fired"], L["core.steps"])
	return nil
}
