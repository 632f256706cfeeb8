package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// The traced run measures each layer from outside: a decorator around the
// specification machine times every call the explorer makes into the spec
// layer's public interfaces, and a wrapper around transport.Conn times every
// barrier and probe. Spans are aggregated per (layer, BFS level) in memory
// and written out when the benchmark ends.

// layer indexes the machine-side layers the decorator times.
type layer int

const (
	layerSucc   layer = iota // spec.BufferedMachine.AppendNext / Machine.Next
	layerCanon               // OrbitFingerprint / PermutedFingerprint / Permute
	layerInv                 // each spec.Invariant.Check
	layerEncode              // spec.StateCodec.AppendState
	layerDecode              // spec.StateCodec.DecodeState
	numLayers
)

var layerNames = [numLayers]string{"specs", "canon", "invariants", "codec.encode", "codec.decode"}

// maxLevels bounds the per-level span table; deeper levels share the last row.
const maxLevels = 128

// maxFPStream caps the recorded canonical-fingerprint stream (16 bytes each).
const maxFPStream = 1 << 21

// cell is one (level, layer) aggregate, padded so concurrent workers updating
// different layers do not share a cache line.
type cell struct {
	count atomic.Int64
	ns    atomic.Int64
	_     [48]byte
}

// fpRec is one canonical fingerprint as the explorer would insert it.
type fpRec struct {
	fp    uint64
	depth int32
}

// recorder aggregates the spans of one traced exploration (one peer).
type recorder struct {
	// level is the BFS level being expanded, advanced by the explorer's
	// "level" tracer events.
	level atomic.Int32
	cells [maxLevels][numLayers]cell

	succOut  atomic.Int64 // successors returned by the spec layer
	reduced  atomic.Int64 // canonicalizations a non-identity permutation won
	encBytes atomic.Int64 // bytes appended by StateCodec.AppendState

	// captureSucc records the plain fingerprints of successors, which is
	// the explorer's canonical fingerprint when symmetry is off (the
	// explorer then calls State.Fingerprint directly, outside the machine).
	captureSucc bool
	fpMu        sync.Mutex
	fps         []fpRec

	levelMu  sync.Mutex
	levelEnd []time.Time // completion time of each level, by depth-1
	start    time.Time   // when the exploration call began
}

func newRecorder(captureSucc bool) *recorder {
	r := &recorder{captureSucc: captureSucc, start: time.Now()}
	r.level.Store(1)
	return r
}

// onEvent is the tracer tee: a "level" event closes level depth and opens
// depth+1.
func (r *recorder) onEvent(e obs.Event) {
	if e.Kind != "level" {
		return
	}
	d, err := strconv.Atoi(e.Detail["depth"])
	if err != nil {
		return
	}
	r.levelMu.Lock()
	r.levelEnd = append(r.levelEnd, time.Now())
	r.levelMu.Unlock()
	r.level.Store(int32(d + 1))
}

func (r *recorder) span(l layer, start time.Time) {
	d := time.Since(start)
	lv := min(int(r.level.Load()), maxLevels-1)
	c := &r.cells[lv][l]
	c.count.Add(1)
	c.ns.Add(int64(d))
}

func (r *recorder) recordFPs(recs ...fpRec) {
	r.fpMu.Lock()
	if len(r.fps)+len(recs) <= maxFPStream {
		r.fps = append(r.fps, recs...)
	}
	r.fpMu.Unlock()
}

// total sums one layer over all levels.
func (r *recorder) total(l layer) (count, ns int64) {
	for lv := range r.cells {
		count += r.cells[lv][l].count.Load()
		ns += r.cells[lv][l].ns.Load()
	}
	return count, ns
}

// levelWalls returns each completed level's wall time.
func (r *recorder) levelWalls() []time.Duration {
	r.levelMu.Lock()
	defer r.levelMu.Unlock()
	out := make([]time.Duration, len(r.levelEnd))
	prev := r.start
	for i, t := range r.levelEnd {
		out[i] = t.Sub(prev)
		prev = t
	}
	return out
}

// spanRow is one aggregated span in the written trace.
type spanRow struct {
	Peer   int    `json:"peer"`
	Layer  string `json:"layer"`
	Level  int    `json:"level"`
	Parent string `json:"parent"`
	Count  int64  `json:"count"`
	BusyNs int64  `json:"busy_ns"`
}

// rows renders the recorder's non-empty spans; each layer span's parent is
// its BFS level span.
func (r *recorder) rows(peer int) []spanRow {
	var out []spanRow
	for i, w := range r.levelWalls() {
		out = append(out, spanRow{Peer: peer, Layer: "level", Level: i + 1, Parent: "run", Count: 1, BusyNs: int64(w)})
	}
	for lv := range r.cells {
		for l := layer(0); l < numLayers; l++ {
			c := &r.cells[lv][l]
			if n := c.count.Load(); n > 0 {
				out = append(out, spanRow{
					Peer: peer, Layer: layerNames[l], Level: lv,
					Parent: "level/" + strconv.Itoa(lv), Count: n, BusyNs: c.ns.Load(),
				})
			}
		}
	}
	return out
}

// --- machine decorator ----------------------------------------------------

// The explorer picks its dispatch paths by type-asserting the machine for
// the optional spec interfaces, so the decorator must expose exactly the
// interfaces the wrapped machine has. Each supported interface set has its
// own wrapper type; wrapMachine refuses any other set rather than change
// which paths the explorer takes.

// optionalInterfaces lists the optional spec interfaces m implements, in a
// fixed order.
func optionalInterfaces(m spec.Machine) []string {
	var out []string
	if _, ok := m.(spec.BufferedMachine); ok {
		out = append(out, "BufferedMachine")
	}
	if _, ok := m.(spec.Symmetric); ok {
		out = append(out, "Symmetric")
	}
	if _, ok := m.(spec.FastSymmetric); ok {
		out = append(out, "FastSymmetric")
	}
	if _, ok := m.(spec.OrbitHasher); ok {
		out = append(out, "OrbitHasher")
	}
	if _, ok := m.(spec.ActionLister); ok {
		out = append(out, "ActionLister")
	}
	if _, ok := m.(spec.StateCodec); ok {
		out = append(out, "StateCodec")
	}
	return out
}

var (
	orbitSet = []string{"BufferedMachine", "Symmetric", "FastSymmetric", "OrbitHasher", "ActionLister"}
	codecSet = append(slices.Clone(orbitSet), "StateCodec")
)

// wrapMachine returns m decorated to record into rec.
func wrapMachine(m spec.Machine, rec *recorder) (spec.Machine, error) {
	base := &tracedMachine{m: m, rec: rec}
	switch have := optionalInterfaces(m); {
	case slices.Equal(have, orbitSet):
		return newOrbitMachine(base), nil
	case slices.Equal(have, codecSet):
		return &codecMachine{orbitMachine: newOrbitMachine(base), sc: m.(spec.StateCodec)}, nil
	default:
		return nil, fmt.Errorf("no traced wrapper for %s with interfaces [%s]", m.Name(), strings.Join(have, " "))
	}
}

// tracedMachine decorates the mandatory spec.Machine methods.
type tracedMachine struct {
	m   spec.Machine
	rec *recorder
}

func (t *tracedMachine) Name() string       { return t.m.Name() }
func (t *tracedMachine) Init() []spec.State { return t.m.Init() }

func (t *tracedMachine) Next(s spec.State) []spec.Succ {
	start := time.Now()
	out := t.m.Next(s)
	t.rec.span(layerSucc, start)
	t.afterSucc(out)
	return out
}

func (t *tracedMachine) afterSucc(out []spec.Succ) {
	t.rec.succOut.Add(int64(len(out)))
	if !t.rec.captureSucc {
		return
	}
	depth := t.rec.level.Load()
	recs := make([]fpRec, len(out))
	for i, s := range out {
		recs[i] = fpRec{fp: s.State.Fingerprint(), depth: depth}
	}
	t.rec.recordFPs(recs...)
}

func (t *tracedMachine) Invariants() []spec.Invariant {
	invs := t.m.Invariants()
	out := make([]spec.Invariant, len(invs))
	for i, inv := range invs {
		check := inv.Check
		out[i] = spec.Invariant{Name: inv.Name, Check: func(s spec.State) error {
			start := time.Now()
			err := check(s)
			t.rec.span(layerInv, start)
			return err
		}}
	}
	return out
}

// orbitMachine adds BufferedMachine, Symmetric, FastSymmetric, OrbitHasher
// and ActionLister: zabkeeper's interface set.
type orbitMachine struct {
	*tracedMachine
	bm spec.BufferedMachine
	oh spec.OrbitHasher
	fs spec.FastSymmetric
	al spec.ActionLister
}

func newOrbitMachine(t *tracedMachine) *orbitMachine {
	return &orbitMachine{
		tracedMachine: t,
		bm:            t.m.(spec.BufferedMachine),
		oh:            t.m.(spec.OrbitHasher),
		fs:            t.m.(spec.FastSymmetric),
		al:            t.m.(spec.ActionLister),
	}
}

func (o *orbitMachine) AppendNext(s spec.State, buf []spec.Succ) []spec.Succ {
	n := len(buf)
	start := time.Now()
	out := o.bm.AppendNext(s, buf)
	o.rec.span(layerSucc, start)
	o.afterSucc(out[n:])
	return out
}

func (o *orbitMachine) NumNodes() int { return o.fs.NumNodes() }

func (o *orbitMachine) Permute(s spec.State, perm []int) spec.State {
	start := time.Now()
	out := o.fs.Permute(s, perm)
	o.rec.span(layerCanon, start)
	return out
}

func (o *orbitMachine) PermutedFingerprint(s spec.State, perm []int) uint64 {
	start := time.Now()
	out := o.fs.PermutedFingerprint(s, perm)
	o.rec.span(layerCanon, start)
	return out
}

func (o *orbitMachine) OrbitFingerprint(s spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) (uint64, bool) {
	start := time.Now()
	min, reduced := o.oh.OrbitFingerprint(s, perms, scratch)
	o.rec.span(layerCanon, start)
	if reduced {
		o.rec.reduced.Add(1)
	}
	if !o.rec.captureSucc {
		o.rec.recordFPs(fpRec{fp: min, depth: o.rec.level.Load()})
	}
	return min, reduced
}

func (o *orbitMachine) Actions() []string { return o.al.Actions() }

// codecMachine adds StateCodec: the Raft family's and toy's interface set.
type codecMachine struct {
	*orbitMachine
	sc spec.StateCodec
}

func (c *codecMachine) AppendState(dst []byte, s spec.State) []byte {
	n := len(dst)
	start := time.Now()
	out := c.sc.AppendState(dst, s)
	c.rec.span(layerEncode, start)
	c.rec.encBytes.Add(int64(len(out) - n))
	return out
}

func (c *codecMachine) DecodeState(src []byte) (spec.State, []byte, error) {
	start := time.Now()
	s, rest, err := c.sc.DecodeState(src)
	c.rec.span(layerDecode, start)
	return s, rest, err
}

// --- transport wrapper ----------------------------------------------------

// clusterTrace aggregates the transport spans of every peer of one cluster.
type clusterTrace struct {
	mu         sync.Mutex
	arrivals   map[uint64][]time.Time // barrier tag -> arrival time per peer
	exchangeNs int64                  // summed over peers
	bytesSent  int64
	barriers   int64 // coordinator's Exchange calls
	probeUs    []float64
}

func newClusterTrace() *clusterTrace {
	return &clusterTrace{arrivals: make(map[uint64][]time.Time)}
}

// stall is the time peers spent waiting at barriers for the last arrival.
func (ct *clusterTrace) stall() time.Duration {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	var total time.Duration
	for _, arr := range ct.arrivals {
		var last time.Time
		for _, t := range arr {
			if t.After(last) {
				last = t
			}
		}
		for _, t := range arr {
			if !t.IsZero() {
				total += last.Sub(t)
			}
		}
	}
	return total
}

// tracedConn times one peer's calls into transport.Conn.
type tracedConn struct {
	transport.Conn
	ct *clusterTrace
}

func (c *tracedConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	start := time.Now()
	in, sums, err := c.Conn.Exchange(tag, blocks, summary)
	d := time.Since(start)
	n := len(summary)
	for _, b := range blocks {
		n += len(b)
	}
	self, peers := c.Self(), c.Peers()
	c.ct.mu.Lock()
	arr := c.ct.arrivals[tag]
	if arr == nil {
		arr = make([]time.Time, peers)
		c.ct.arrivals[tag] = arr
	}
	arr[self] = start
	c.ct.exchangeNs += int64(d)
	c.ct.bytesSent += int64(n)
	if self == 0 {
		c.ct.barriers++
	}
	c.ct.mu.Unlock()
	return in, sums, err
}

func (c *tracedConn) Probe(peer int, f uint64) (uint64, int32, bool, error) {
	start := time.Now()
	parent, depth, ok, err := c.Conn.Probe(peer, f)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	c.ct.mu.Lock()
	c.ct.probeUs = append(c.ct.probeUs, us)
	c.ct.mu.Unlock()
	return parent, depth, ok, err
}
