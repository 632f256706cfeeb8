package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/fpset"
)

// bench drives the legs of one run and counts verified operations.
type bench struct {
	e                 *env
	budget            time.Duration // how long a run repeats its measured legs
	attempted, failed int
}

// verified records one operation and reports whether it passed.
func (b *bench) verified(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// setupSeconds times set-up setupReps times after one untimed warm-up and
// returns the median. Each set-up starts from a heap whose free memory went
// back to the OS, as in a fresh process, so every one pays the same page
// faults instead of reusing a varying share of its predecessors' memory.
func (b *bench) setupSeconds() (float64, error) {
	var xs []float64
	for i := 0; i <= setupReps; i++ {
		debug.FreeOSMemory()
		d, err := b.e.setup()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		if i > 0 {
			xs = append(xs, d.Seconds())
		}
	}
	return median(xs), nil
}

// timedLeg runs and verifies one exploration leg. After a plain leg of a
// workload with native checkpoints it also times the resume from the leg's
// chain.
func (b *bench) timedLeg(kind legKind) (*leg, time.Duration, bool) {
	e := b.e
	if e.w.nativeResume {
		if err := e.freshDirs(); err != nil {
			return nil, 0, b.verified("leg dirs", err)
		}
	}
	opts := e.w.options(e)
	l, err := e.run(opts, kind)
	if err == nil {
		err = e.w.verify(e, l)
	}
	if !b.verified("exploration leg", err) {
		return nil, 0, false
	}
	fmt.Fprintf(os.Stderr, "leg %s distinct=%d transitions=%d depth=%d stop=%s wall=%v cpu=%v gc_cycles=%d\n",
		kind, l.res.DistinctStates, l.res.Transitions, l.res.MaxDepth, l.res.StopReason, l.wall.Round(time.Millisecond),
		(l.after.cpu - l.before.cpu).Round(time.Millisecond), l.after.gcCycles-l.before.gcCycles)
	if !e.w.nativeResume || kind != plainLeg {
		return l, 0, true
	}
	if l.ckDistinct == 0 {
		return l, 0, b.verified("resume leg", fmt.Errorf("no committed checkpoint to resume"))
	}
	d, err := e.resume(opts, l.ckDistinct)
	fmt.Fprintf(os.Stderr, "resume restored=%d wall=%v\n", l.ckDistinct, d.Round(time.Millisecond))
	return l, d, b.verified("resume leg", err)
}

// timedRun measures the end-to-end metrics, untraced. It starts with a
// footprint leg, which measures peak_heap_bytes and warms the process up
// (heap growth, first page faults); a workload without native checkpoints
// then writes and resumes its checkpoint chain.
func (b *bench) timedRun() (map[string]metric, error) {
	setup, err := b.setupSeconds()
	if err != nil {
		return nil, err
	}
	out := map[string]metric{"setup_s": {setup, "s"}}
	if l, _, ok := b.timedLeg(footprintLeg); ok {
		fmt.Fprintf(os.Stderr, "footprint peak_live=%dMiB\n", l.peak>>20)
		out["peak_heap_bytes"] = metric{float64(l.peak), "B"}
	}
	vals := map[string][]float64{}
	if !b.e.w.nativeResume {
		vals["resume_s"] = b.resumeLegs()
	}
	deadline := time.Now().Add(b.budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		l, resume, ok := b.timedLeg(plainLeg)
		if !ok {
			continue
		}
		for k, v := range endToEnd(l) {
			vals[k] = append(vals[k], v)
		}
		if resume > 0 {
			vals["resume_s"] = append(vals["resume_s"], resume.Seconds())
		}
	}
	for _, d := range endToEndDefs {
		if xs := vals[d.name]; len(xs) > 0 {
			out[d.name] = metric{median(xs), d.unit}
		}
	}
	return out, nil
}

// resumeRepeats is how often a workload without native checkpoints resumes
// from its checkpoint leg's chain (a resume that expands nothing leaves the
// chain as it was).
const resumeRepeats = 3

// resumeLegs writes a checkpoint chain the workload's resumeDepth levels
// deep and times resuming from it.
func (b *bench) resumeLegs() []float64 {
	opts, restored, err := b.e.checkpointLeg()
	if !b.verified("checkpoint leg", err) {
		return nil
	}
	var xs []float64
	for range resumeRepeats {
		d, err := b.e.resume(opts, restored)
		fmt.Fprintf(os.Stderr, "resume restored=%d wall=%v\n", restored, d.Round(time.Millisecond))
		if b.verified("resume leg", err) {
			xs = append(xs, d.Seconds())
		}
	}
	return xs
}

type def struct{ name, unit string }

// endToEndDefs are the end-to-end metrics, in report order.
var endToEndDefs = []def{
	{"states_per_s", "1/s"},
	{"cpu_us_per_state", "us"},
	{"alloc_bytes_per_state", "B"},
	{"allocs_per_state", "count"},
	{"peak_heap_bytes", "B"},
	{"time_to_verdict_s", "s"},
	{"resume_s", "s"},
	{"setup_s", "s"},
}

func endToEnd(l *leg) map[string]float64 {
	n := float64(l.res.DistinctStates)
	return map[string]float64{
		"states_per_s":          n / l.wall.Seconds(),
		"cpu_us_per_state":      float64((l.after.cpu - l.before.cpu).Nanoseconds()) / 1e3 / n,
		"alloc_bytes_per_state": float64(l.after.allocBytes-l.before.allocBytes) / n,
		"allocs_per_state":      float64(l.after.allocObjs-l.before.allocObjs) / n,
		"time_to_verdict_s":     l.verdict.Seconds(),
	}
}

// tracedRun alternates traced and untraced legs after an untraced warm-up
// leg, reports the traced legs' per-layer metrics (medians) and the tracing
// overhead, and writes the last traced leg's spans.
func (b *bench) tracedRun(seed int64) (map[string]metric, error) {
	var plain, traced []float64
	vals := map[string][]float64{}
	var last *leg
	var sig string
	deadline := time.Now().Add(b.budget)
	for i := 0; len(plain) == 0 || len(traced) == 0 || time.Now().Before(deadline); i++ {
		if i > 4 && (len(plain) == 0 || len(traced) == 0) {
			return nil, fmt.Errorf("no verified leg of each kind after %d attempts", i)
		}
		t := i%2 == 1
		kind := plainLeg
		if t {
			kind = tracedLeg
		}
		l, _, ok := b.timedLeg(kind)
		if !ok {
			continue
		}
		// A traced leg must explore exactly what an untraced one does.
		if s := signature(l.res); sig == "" {
			sig = s
		} else if !b.verified("traced signature", sigErr(sig, s)) {
			continue
		}
		sps := float64(l.res.DistinctStates) / l.wall.Seconds()
		switch {
		case i == 0: // warm-up
		case !t:
			plain = append(plain, sps)
		default:
			traced = append(traced, sps)
			for k, v := range perLayer(l) {
				vals[k] = append(vals[k], v)
			}
			last = l
		}
	}
	vals["trace.overhead"] = []float64{1 - median(traced)/median(plain)}
	out := map[string]metric{}
	for _, d := range perLayerDefs {
		out[d.name] = metric{median(vals[d.name]), d.unit}
	}
	return out, writeSpans(b.e, seed, last)
}

func signature(r *explorer.Result) string {
	s := fmt.Sprintf("distinct=%d transitions=%d depth=%d stop=%s", r.DistinctStates, r.Transitions, r.MaxDepth, r.StopReason)
	if v := r.FirstViolation(); v != nil {
		s += fmt.Sprintf(" violation=%s@%d", v.Invariant, v.Depth)
	}
	return s
}

func sigErr(want, got string) error {
	if want != got {
		return fmt.Errorf("result %q differs from %q", got, want)
	}
	return nil
}

// perLayerDefs are the per-layer metrics, in report order.
var perLayerDefs = []def{
	{"specs.succ_ns_per_state", "ns"},
	{"specs.succ_share", "ratio"},
	{"specs.succ_per_call", "count"},
	{"canon.ns_per_call", "ns"},
	{"canon.share", "ratio"},
	{"canon.reduced_ratio", "ratio"},
	{"invariants.ns_per_state", "ns"},
	{"invariants.share", "ratio"},
	{"codec.encode_ns", "ns"},
	{"codec.decode_ns", "ns"},
	{"codec.bytes_per_state", "B"},
	{"codec.share", "ratio"},
	{"fpset.probes_per_state", "count"},
	{"fpset.fresh_ratio", "ratio"},
	{"fpset.resizes", "count"},
	{"fpset.disk_probes", "count"},
	{"fpset.spill_bytes", "B"},
	{"fpset.insert_ns", "ns"},
	{"checkpoint.write_s", "s"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.deltas", "count"},
	{"spill.frontier_bytes", "B"},
	{"transport.exchange_s", "s"},
	{"transport.stall_s", "s"},
	{"transport.bytes_per_state", "B"},
	{"transport.barriers", "count"},
	{"transport.probes", "count"},
	{"transport.probe_us_p50", "us"},
	{"explorer.self_share", "ratio"},
	{"explorer.core_util", "ratio"},
	{"explorer.levels", "count"},
	{"explorer.level_ms_max", "ms"},
	{"explorer.max_frontier", "count"},
	{"gc.cpu_share", "ratio"},
	{"gc.cycles", "count"},
	{"replay.confirm_ms", "ms"},
	{"replay.steps", "count"},
	{"trace.overhead", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of one traced leg.
func perLayer(l *leg) map[string]float64 {
	var cnt, ns [numLayers]float64
	var succOut, reduced, encBytes float64
	var fps []fpRec
	for _, r := range l.recs {
		for ly := layer(0); ly < numLayers; ly++ {
			c, n := r.total(ly)
			cnt[ly] += float64(c)
			ns[ly] += float64(n)
		}
		succOut += float64(r.succOut.Load())
		reduced += float64(r.reduced.Load())
		encBytes += float64(r.encBytes.Load())
		fps = append(fps, r.fps...)
	}
	distinct := float64(l.res.DistinctStates)
	busy := l.wall.Seconds() * 1e9 * float64(l.threads)
	probes := float64(sumGauge(l.regs, "fpset.probes"))
	m := map[string]float64{
		"specs.succ_ns_per_state": ratio(ns[layerSucc], cnt[layerSucc]),
		"specs.succ_share":        ratio(ns[layerSucc], busy),
		"specs.succ_per_call":     ratio(succOut, cnt[layerSucc]),
		"canon.ns_per_call":       ratio(ns[layerCanon], cnt[layerCanon]),
		"canon.share":             ratio(ns[layerCanon], busy),
		"canon.reduced_ratio":     ratio(reduced, cnt[layerCanon]),
		"invariants.ns_per_state": ratio(ns[layerInv], distinct),
		"invariants.share":        ratio(ns[layerInv], busy),
		"codec.encode_ns":         ratio(ns[layerEncode], cnt[layerEncode]),
		"codec.decode_ns":         ratio(ns[layerDecode], cnt[layerDecode]),
		"codec.bytes_per_state":   ratio(encBytes, cnt[layerEncode]),
		"codec.share":             ratio(ns[layerEncode]+ns[layerDecode], busy),
		"fpset.probes_per_state":  ratio(probes, distinct),
		"fpset.fresh_ratio":       ratio(distinct, probes),
		"fpset.resizes":           float64(sumGauge(l.regs, "fpset.resizes")),
		"fpset.disk_probes":       float64(sumGauge(l.regs, "fpset.disk_probes")),
		"fpset.spill_bytes":       float64(sumGauge(l.regs, "fpset.spill_bytes")),
		"fpset.insert_ns":         insertNs(fps),
		"checkpoint.write_s":      float64(sumCounter(l.regs, "phase.checkpoint_ns")) / 1e9,
		"checkpoint.bytes":        float64(l.ckBytes),
		"checkpoint.deltas":       float64(sumCounter(l.regs, "checkpoint.deltas")),
		"spill.frontier_bytes":    float64(sumCounter(l.regs, "explorer.frontier_spill_bytes")),
		"explorer.core_util":      ratio((l.after.cpu - l.before.cpu).Seconds(), l.wall.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"explorer.max_frontier":   float64(l.res.MaxQueueLen),
		"gc.cpu_share":            ratio(l.after.gcCPU-l.before.gcCPU, l.after.totalCPU-l.before.totalCPU),
		"gc.cycles":               float64(l.after.gcCycles - l.before.gcCycles),
	}
	// A layer the workload does not touch reads 0.
	for _, d := range perLayerDefs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	layered := ns[layerSucc] + ns[layerCanon] + ns[layerInv] + ns[layerEncode] + ns[layerDecode]
	if ct := l.ct; ct != nil {
		m["transport.exchange_s"] = float64(ct.exchangeNs) / 1e9
		m["transport.stall_s"] = ct.stall().Seconds()
		m["transport.bytes_per_state"] = ratio(float64(ct.bytesSent), distinct)
		m["transport.barriers"] = float64(ct.barriers)
		m["transport.probes"] = float64(len(ct.probeUs))
		if len(ct.probeUs) > 0 {
			m["transport.probe_us_p50"] = median(ct.probeUs)
		}
		layered += float64(ct.exchangeNs)
	}
	m["explorer.self_share"] = max(0, 1-ratio(layered, busy))
	if len(l.recs) > 0 {
		walls := l.recs[0].levelWalls()
		m["explorer.levels"] = float64(len(walls))
		for _, w := range walls {
			m["explorer.level_ms_max"] = max(m["explorer.level_ms_max"], float64(w.Nanoseconds())/1e6)
		}
	}
	if l.confirm != nil {
		m["replay.confirm_ms"] = float64(l.confirmDur.Nanoseconds()) / 1e6
		m["replay.steps"] = float64(l.confirm.Steps)
	}
	return m
}

// insertNs replays a traced leg's canonical-fingerprint stream through
// fpset.Set.Insert on a fresh set and returns the mean time per insert.
func insertNs(fps []fpRec) float64 {
	if len(fps) == 0 {
		return 0
	}
	set := fpset.New(0)
	start := time.Now()
	for i, r := range fps {
		set.Insert(r.fp, uint64(i), r.depth)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(fps))
}

// writeSpans writes the aggregated spans of a traced leg.
func writeSpans(e *env, seed int64, l *leg) error {
	if l == nil {
		return nil
	}
	var rows []spanRow
	for p, r := range l.recs {
		rows = append(rows, r.rows(p)...)
	}
	if ct := l.ct; ct != nil {
		rows = append(rows,
			spanRow{Peer: -1, Layer: "transport.exchange", Level: -1, Parent: "run", Count: ct.barriers, BusyNs: ct.exchangeNs},
			spanRow{Peer: -1, Layer: "transport.stall", Level: -1, Parent: "transport.exchange", Count: ct.barriers, BusyNs: int64(ct.stall())},
		)
	}
	if l.confirm != nil {
		rows = append(rows, spanRow{Peer: 0, Layer: "replay.confirm", Level: -1, Parent: "run", Count: 1, BusyNs: int64(l.confirmDur)})
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%s-seed%d.json", e.w.name, e.inst.name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(map[string]any{
		"workload": e.w.name, "instance": e.inst.name, "seed": seed,
		"wall_ns": l.wall.Nanoseconds(), "threads": l.threads, "spans": rows,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
