package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/experiments"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// instance is one model a workload can check, with the outputs every run of
// it must reproduce. The counts are properties of the model: they were
// produced by an in-RAM, single-process run and hold at every worker count,
// cluster size and memory budget.
type instance struct {
	name   string // --instance value
	system string
	cfg    spec.Config
	budget spec.Budget
	bugs   bugdb.Set
	// maxStates caps the run at a BFS level boundary (0 = no cap), so the
	// capped count is a whole number of levels.
	maxStates int
	want      expect
}

type expect struct {
	distinct    int
	transitions int64
	depth       int    // deepest level with a non-empty frontier, or the violation's depth
	invariant   string // hunt workloads: the invariant the counterexample breaks
}

func exp1(system string, maxStates int, want expect) instance {
	return instance{
		name: system, system: system,
		cfg:    spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
		budget: experiments.Exp1Budget(system), bugs: bugdb.NoBugs(),
		maxStates: maxStates, want: want,
	}
}

func hunt(id, system string, want expect) instance {
	d := experiments.Detections[id]
	return instance{name: id, system: system, cfg: d.Config, budget: d.Budget, bugs: d.Bugs, want: want}
}

// alphabets are the workload value names a seed selects from. Renaming the
// values gives an isomorphic state space — every count below is unchanged —
// while every fingerprint, and so the hash-table layout and the BFS order,
// differs.
var alphabets = [][]string{
	{"v1", "v2"}, {"a1", "a2"}, {"b1", "b2"}, {"c1", "c2"},
	{"d1", "d2"}, {"e1", "e2"}, {"f1", "f2"}, {"g1", "g2"},
}

// withSeed returns inst's configuration with the seed's value alphabet.
func withSeed(cfg spec.Config, seed int64) spec.Config {
	a := alphabets[((seed%int64(len(alphabets)))+int64(len(alphabets)))%int64(len(alphabets))]
	cfg.Workload = a[:len(cfg.Workload)]
	return cfg
}

// workload is one benchmark workload.
type workload struct {
	name string
	// instances[0] is the default; the others are held out for re-checking
	// a claim on a model the change was not tuned on.
	instances []instance
	// peers > 1 runs a TCP cluster of that many peers in this process.
	peers int
	// options returns the explorer options of a timed leg.
	options func(e *env) explorer.Options
	// verify checks a timed leg's outputs.
	verify func(e *env, l *leg) error
	// nativeResume marks a workload whose timed legs write delta
	// checkpoints; each is followed by a resume from its own chain.
	nativeResume bool
	// resumeDepth is, for the other workloads, how many levels the
	// checkpoint leg explores before its timed resumes; each default
	// instance restores about 50k states there.
	resumeDepth int
}

func nproc() int { return runtime.NumCPU() }

var workloads = []*workload{
	{
		name: "raft-sym-serial",
		instances: []instance{
			exp1("gosyncobj", 0, expect{distinct: 136613, transitions: 710978, depth: 19}),
			exp1("xraft", 0, expect{distinct: 235394, transitions: 1230144, depth: 27}),
		},
		peers: 1, resumeDepth: 10,
		options: func(e *env) explorer.Options {
			return explorer.Options{Symmetry: true, Workers: 1, StopAtFirstViolation: true, MaxStates: 4_000_000}
		},
		verify: func(e *env, l *leg) error {
			if !l.res.Exhausted {
				return fmt.Errorf("stopped (%s) before exhausting the space", l.res.StopReason)
			}
			return checkCounts(e.inst.want, l.res)
		},
	},
	{
		name: "zab-nosym-parallel",
		instances: []instance{
			exp1("zabkeeper", 215926, expect{distinct: 215926, transitions: 584234, depth: 17}),
		},
		peers: 1, resumeDepth: 13,
		options: func(e *env) explorer.Options {
			return explorer.Options{Symmetry: false, Workers: nproc(), StopAtFirstViolation: true, MaxStates: e.inst.maxStates}
		},
		verify: func(e *env, l *leg) error {
			if l.res.StopReason != "max-states" {
				return fmt.Errorf("stop reason %q, want max-states", l.res.StopReason)
			}
			return checkCounts(e.inst.want, l.res)
		},
	},
	{
		name: "raft-outofcore-resume",
		instances: []instance{
			exp1("craft", 148629, expect{distinct: 148629, transitions: 439332, depth: 13}),
			exp1("asyncraft", 128159, expect{distinct: 128159, transitions: 384904, depth: 13}),
		},
		peers: 1, nativeResume: true,
		options: func(e *env) explorer.Options {
			return explorer.Options{
				Symmetry: true, Workers: nproc(), StopAtFirstViolation: true, MaxStates: e.inst.maxStates,
				MemBudget: outOfCoreBudget, SpillDir: e.spillDir,
				Checkpoint: explorer.CheckpointOptions{Dir: e.ckDir, EveryStates: 40_000, Label: e.label},
			}
		},
		verify: func(e *env, l *leg) error {
			if err := checkCounts(e.inst.want, l.res); err != nil {
				return err
			}
			if n := sumGauge(l.regs, "fpset.spilled_entries"); n <= 0 {
				return fmt.Errorf("fpset.spilled_entries = %d, want > 0 under the memory budget", n)
			}
			if n := sumCounter(l.regs, "checkpoint.deltas"); n <= 0 {
				return fmt.Errorf("checkpoint.deltas = %d, want > 0", n)
			}
			return nil
		},
	},
	{
		name: "raft-cluster-hunt",
		instances: []instance{
			hunt("AsyncRaft#4", "asyncraft", expect{distinct: 139945, transitions: 371617, depth: 11, invariant: "NoFlaggedViolation"}),
			hunt("CRaft#1", "craft", expect{distinct: 52803, transitions: 129788, depth: 10, invariant: "LogDurability"}),
		},
		peers: 2, resumeDepth: 10,
		options: func(e *env) explorer.Options {
			o := explorer.DefaultOptions()
			o.Workers = 1
			return o
		},
		verify: func(e *env, l *leg) error {
			v := l.res.FirstViolation()
			switch {
			case v == nil:
				return fmt.Errorf("no violation found (stop %s)", l.res.StopReason)
			case v.Invariant != e.inst.want.invariant || v.Depth != e.inst.want.depth:
				return fmt.Errorf("violation %s at depth %d, want %s at depth %d", v.Invariant, v.Depth, e.inst.want.invariant, e.inst.want.depth)
			case l.res.DistinctStates != e.inst.want.distinct || l.res.Transitions != e.inst.want.transitions:
				return fmt.Errorf("distinct %d transitions %d, want the single-process counts %d and %d",
					l.res.DistinctStates, l.res.Transitions, e.inst.want.distinct, e.inst.want.transitions)
			case l.confirm == nil || !l.confirm.Confirmed:
				return fmt.Errorf("replay did not confirm the counterexample")
			}
			return nil
		},
	},
}

// outOfCoreBudget is far below the out-of-core workload's working set, so
// the fingerprint set and the frontier spill from the first levels on.
const outOfCoreBudget = 256 << 10

func checkCounts(w expect, res *explorer.Result) error {
	switch {
	case res.Err != nil:
		return res.Err
	case len(res.Violations) > 0:
		return fmt.Errorf("unexpected violation %s", res.Violations[0].Invariant)
	case res.DistinctStates != w.distinct:
		return fmt.Errorf("distinct %d, want %d", res.DistinctStates, w.distinct)
	case res.Transitions != w.transitions:
		return fmt.Errorf("transitions %d, want %d", res.Transitions, w.transitions)
	case res.MaxDepth != w.depth:
		return fmt.Errorf("depth %d, want %d", res.MaxDepth, w.depth)
	}
	return nil
}

func sumGauge(regs []*obs.Registry, name string) int64 {
	var n int64
	for _, r := range regs {
		n += r.Gauge(name).Value()
	}
	return n
}

func sumCounter(regs []*obs.Registry, name string) int64 {
	var n int64
	for _, r := range regs {
		n += r.Counter(name).Value()
	}
	return n
}

// env is one benchmark run's context.
type env struct {
	w       *workload
	inst    instance
	sys     *sandtable.System
	cfg     spec.Config
	label   string
	workDir string // scratch root inside the checkout
	// spillDir and ckDir are per-leg; the leg that uses them creates them.
	spillDir, ckDir string
}

func newEnv(w *workload, instName string, seed int64, workDir string) (*env, error) {
	inst := w.instances[0]
	if instName != "" {
		found := false
		for _, in := range w.instances {
			if in.name == instName {
				inst, found = in, true
			}
		}
		if !found {
			return nil, fmt.Errorf("workload %s has no instance %q", w.name, instName)
		}
	}
	sys, err := integrations.Get(inst.system)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, inst: inst, sys: sys, cfg: withSeed(inst.cfg, seed), workDir: workDir}
	e.label = e.session().Label()
	return e, nil
}

func (e *env) session() *sandtable.SandTable {
	return sandtable.New(e.sys, e.cfg, e.inst.budget, e.inst.bugs)
}

// freshDirs creates this leg's spill and checkpoint directories.
func (e *env) freshDirs() error {
	if err := os.RemoveAll(e.workDir); err != nil {
		return err
	}
	e.spillDir = filepath.Join(e.workDir, "spill")
	e.ckDir = filepath.Join(e.workDir, "checkpoint")
	for _, d := range []string{e.spillDir, e.ckDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// legKind selects how a leg is instrumented.
type legKind string

const (
	plainLeg     legKind = "plain"     // timed, uninstrumented
	tracedLeg    legKind = "traced"    // machine and transport decorated
	footprintLeg legKind = "footprint" // forced GC and heap reading at every block or barrier
)

// leg is one exploration call with everything measured around it.
type leg struct {
	res           *explorer.Result // the coordinator's result in a cluster
	wall          time.Duration    // the exploration call
	verdict       time.Duration    // exploration start to a verified verdict
	before, after sample
	peak          uint64 // footprint legs only
	threads       int    // expansion goroutines
	regs          []*obs.Registry
	recs          []*recorder   // traced legs
	ct            *clusterTrace // traced cluster legs
	confirm       *replay.Result
	confirmDur    time.Duration
	ckDistinct    int   // count at the last committed checkpoint (0 = none)
	ckBytes       int64 // checkpoint directory size after the leg
}

// setup times what a leg builds before it explores: the session, the
// machine and the checker, plus the TCP mesh handshake in a cluster and the
// spill/checkpoint directories in the out-of-core workload.
func (e *env) setup() (time.Duration, error) {
	start := time.Now()
	st := e.session()
	if e.w.nativeResume {
		if err := e.freshDirs(); err != nil {
			return 0, err
		}
	}
	opts := e.w.options(e)
	if e.w.peers == 1 {
		explorer.NewChecker(st.Machine(), opts)
		return time.Since(start), nil
	}
	build := time.Since(start)
	conns, handshake, err := dialCluster(e.w.peers, e.label)
	if err != nil {
		return 0, err
	}
	start = time.Now()
	for _, c := range conns {
		o := opts
		o.Peer = &explorer.PeerOptions{Conn: c}
		explorer.NewChecker(st.Machine(), o)
	}
	d := build + handshake + time.Since(start)
	for _, c := range conns {
		c.Close()
	}
	return d, nil
}

// run performs one exploration leg with opts.
func (e *env) run(opts explorer.Options, kind legKind) (*leg, error) {
	traced := kind == tracedLeg
	peers := e.w.peers
	l := &leg{threads: peers * max(opts.Workers, 1)}
	st := e.session()

	var conns []transport.Conn
	if peers > 1 {
		var err error
		if conns, _, err = dialCluster(peers, e.label); err != nil {
			return nil, err
		}
		if traced {
			l.ct = newClusterTrace()
		}
	}
	checkers := make([]*explorer.Checker, peers)
	var peak livePeak
	// In a cluster, a peer's block boundary finds the other peer anywhere in
	// its level, so the footprint is read at barriers instead.
	fb := &footprintBarrier{peers: peers, peak: &peak, arrived: make(map[uint64]int)}
	for p := range peers {
		m := st.Machine()
		reg := obs.NewRegistry()
		o := opts
		o.Metrics = reg
		if kind == footprintLeg && peers == 1 {
			// The explorer reports progress at every expansion block; the
			// last block of a level holds that level's successors.
			o.ProgressStates = 1
			o.Progress = func(obs.Progress) { peak.sample() }
		}
		var rec *recorder
		if traced {
			rec = newRecorder(!opts.Symmetry)
			var err error
			if m, err = wrapMachine(m, rec); err != nil {
				closeAll(conns)
				return nil, err
			}
			l.recs = append(l.recs, rec)
		}
		// The tracer's events advance the recorder's level and carry the
		// count at each committed checkpoint, which the resume leg restores.
		o.Tracer = obs.NewTracer(io.Discard)
		o.Tracer.Tee(func(ev obs.Event) {
			if rec != nil {
				rec.onEvent(ev)
			}
			if ev.Kind == "checkpoint" && ev.Detail["error"] == "" && p == 0 {
				l.ckDistinct, _ = strconv.Atoi(ev.Detail["distinct"])
			}
		})
		if peers > 1 {
			var c transport.Conn = conns[p]
			switch kind {
			case tracedLeg:
				c = &tracedConn{Conn: c, ct: l.ct}
			case footprintLeg:
				c = &footprintConn{Conn: c, fb: fb}
			}
			o.Peer = &explorer.PeerOptions{Conn: c}
		}
		l.regs = append(l.regs, reg)
		checkers[p] = explorer.NewChecker(m, o)
	}

	runtime.GC()
	l.before = takeSample()
	results := make([]*explorer.Result, peers)
	start := time.Now()
	for _, rec := range l.recs {
		rec.start = start
	}
	var wg sync.WaitGroup
	for p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[p] = checkers[p].Run()
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	l.after = takeSample()
	l.peak = peak.max
	l.res = results[0]
	for p, r := range results {
		if r.Err != nil {
			return l, fmt.Errorf("peer %d: %w", p, r.Err)
		}
	}
	if v := l.res.FirstViolation(); v != nil && e.w.peers > 1 {
		cs := time.Now()
		rr, err := st.Confirm(v)
		l.confirmDur = time.Since(cs)
		if err != nil {
			return l, fmt.Errorf("confirm: %w", err)
		}
		l.confirm = rr
	}
	l.verdict = time.Since(start)
	if opts.Checkpoint.Dir != "" {
		l.ckBytes = dirSize(opts.Checkpoint.Dir)
	}
	return l, nil
}

// footprintBarrier samples the live heap when the last peer reaches a level
// barrier: every other peer then waits inside Exchange holding its level's
// candidate blocks, so the reading is the level's peak and repeats.
type footprintBarrier struct {
	mu      sync.Mutex
	peers   int
	arrived map[uint64]int // barrier tag -> peers arrived
	peak    *livePeak
}

type footprintConn struct {
	transport.Conn
	fb *footprintBarrier
}

func (c *footprintConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	c.fb.mu.Lock()
	c.fb.arrived[tag]++
	last := c.fb.arrived[tag] == c.fb.peers
	c.fb.mu.Unlock()
	if last {
		c.fb.peak.sample()
	}
	return c.Conn.Exchange(tag, blocks, summary)
}

// resume times a Resume: true call on the committed chain in opts'
// checkpoint directory, with MaxStates equal to the restored count so
// nothing is expanded, and checks that exactly that count was restored.
func (e *env) resume(opts explorer.Options, restored int) (time.Duration, error) {
	opts.Checkpoint.Resume = true
	opts.MaxStates = restored
	opts.MaxDepth = 0
	opts.Checkpoint.EveryStates = 0
	opts.Checkpoint.Interval = time.Hour
	l, err := e.run(opts, plainLeg)
	if err != nil {
		return 0, err
	}
	switch r := l.res; {
	case !r.Resumed:
		return 0, errors.New("resume leg did not resume")
	case r.DistinctStates != restored:
		return 0, fmt.Errorf("resume restored %d states, the checkpoint holds %d", r.DistinctStates, restored)
	case r.StopReason != "max-states":
		return 0, fmt.Errorf("resume leg stopped with %q, want max-states", r.StopReason)
	}
	return l.wall, nil
}

// checkpointLeg gives a workload without native checkpoints something to
// resume: it explores resumeDepth levels with a checkpoint at every level.
func (e *env) checkpointLeg() (explorer.Options, int, error) {
	if err := e.freshDirs(); err != nil {
		return explorer.Options{}, 0, err
	}
	opts := e.w.options(e)
	opts.MaxStates = 0
	opts.MaxDepth = e.w.resumeDepth
	if e.inst.want.invariant != "" {
		// Stop before the level that holds the counterexample.
		opts.MaxDepth = min(opts.MaxDepth, e.inst.want.depth-1)
	}
	opts.Checkpoint = explorer.CheckpointOptions{Dir: e.ckDir, EveryStates: 1, Label: e.label}
	l, err := e.run(opts, plainLeg)
	if err != nil {
		return opts, 0, err
	}
	if l.res.StopReason != "max-depth" || len(l.res.Violations) > 0 {
		return opts, 0, fmt.Errorf("checkpoint leg stopped with %q", l.res.StopReason)
	}
	return opts, l.res.DistinctStates, nil
}

// dialCluster builds a TCP full mesh of n peers on loopback ports the
// kernel picks, so concurrent runs cannot collide on a fixed port. Peer p
// dials every lower-numbered peer, and a dial that finds no listener retries
// after 100ms; starting the peers in id order, meshHeadStart apart, keeps
// that retry sleep out of the handshake. The returned duration is the
// handshake: from the last peer's start to the mesh being up.
func dialCluster(n int, label string) ([]transport.Conn, time.Duration, error) {
	h := fnv.New64a()
	h.Write([]byte(label))
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addrs, err := freeAddrs(n)
		if err != nil {
			return nil, 0, err
		}
		conns := make([]transport.Conn, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		var last time.Time
		for p := range n {
			if p > 0 {
				time.Sleep(meshHeadStart)
			}
			last = time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				conns[p], errs[p] = transport.DialTCP(transport.TCPOptions{
					Addrs: addrs, Self: p, Digest: h.Sum64(), Timeout: 60 * time.Second,
				})
			}()
		}
		wg.Wait()
		handshake := time.Since(last)
		if lastErr = errors.Join(errs...); lastErr == nil {
			return conns, handshake, nil
		}
		closeAll(conns)
	}
	return nil, 0, fmt.Errorf("tcp mesh: %w", lastErr)
}

// meshHeadStart is how long each peer listens before the next one dials.
const meshHeadStart = 20 * time.Millisecond

func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func closeAll(conns []transport.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	// A file that vanishes mid-walk just does not count.
	_ = filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err == nil && de.Type().IsRegular() {
			if fi, err := de.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
