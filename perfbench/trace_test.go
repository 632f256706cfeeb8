package main

import (
	"io"
	"slices"
	"sync"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/experiments"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/transport"
)

var smallCfg = spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}

// smallBudget keeps every family's space to a few thousand states.
var smallBudget = spec.Budget{Name: "small", MaxTimeouts: 1, MaxRequests: 1, MaxBuffer: 2}

func familyMachine(t *testing.T, name string) spec.Machine {
	t.Helper()
	sys, err := integrations.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return sys.NewMachine(smallCfg, smallBudget, bugdb.NoBugs())
}

func TestWrapperForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	machines := map[string]spec.Machine{"toy": &toy.LostUpdate{N: 3}}
	for _, name := range experiments.Systems {
		machines[name] = familyMachine(t, name)
	}
	if len(machines) != 9 {
		t.Fatalf("want the 8 families and toy, got %d machines", len(machines))
	}
	for name, m := range machines {
		wrapped, err := wrapMachine(m, newRecorder(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := optionalInterfaces(wrapped), optionalInterfaces(m); !slices.Equal(got, want) {
			t.Errorf("%s: wrapper exposes %v, machine has %v", name, got, want)
		}
	}
}

// partialMachine has an interface set no wrapper type reproduces.
type partialMachine struct{ m *toy.LostUpdate }

func (p partialMachine) Name() string                  { return p.m.Name() }
func (p partialMachine) Init() []spec.State            { return p.m.Init() }
func (p partialMachine) Next(s spec.State) []spec.Succ { return p.m.Next(s) }
func (p partialMachine) Invariants() []spec.Invariant  { return p.m.Invariants() }
func (p partialMachine) AppendNext(s spec.State, buf []spec.Succ) []spec.Succ {
	return p.m.AppendNext(s, buf)
}

func TestWrapperRefusesAnUnsupportedInterfaceSet(t *testing.T) {
	m := partialMachine{&toy.LostUpdate{N: 2}}
	if _, err := wrapMachine(m, newRecorder(false)); err == nil {
		t.Fatal("wrapping a BufferedMachine-only machine succeeded; no wrapper type has exactly that set")
	}
}

// traced runs m through the decorator and returns its result and recorder.
func traced(t *testing.T, m spec.Machine, opts explorer.Options) (*explorer.Result, *recorder) {
	t.Helper()
	rec := newRecorder(!opts.Symmetry)
	w, err := wrapMachine(m, rec)
	if err != nil {
		t.Fatal(err)
	}
	opts.Tracer = obs.NewTracer(io.Discard)
	opts.Tracer.Tee(rec.onEvent)
	return explorer.NewChecker(w, opts).Run(), rec
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, tc := range []struct {
		family string
		opts   explorer.Options
	}{
		{"gosyncobj", explorer.Options{Symmetry: true, Workers: 2, StopAtFirstViolation: true}},
		{"zabkeeper", explorer.Options{Symmetry: false, Workers: 2, StopAtFirstViolation: true}},
	} {
		plain := explorer.NewChecker(familyMachine(t, tc.family), tc.opts).Run()
		res, rec := traced(t, familyMachine(t, tc.family), tc.opts)
		if got, want := signature(res), signature(plain); got != want {
			t.Errorf("%s: traced %s, untraced %s", tc.family, got, want)
		}
		if n, _ := rec.total(layerSucc); n == 0 {
			t.Errorf("%s: no successor spans recorded", tc.family)
		}
		if n, _ := rec.total(layerInv); n == 0 {
			t.Errorf("%s: no invariant spans recorded", tc.family)
		}
		if n, _ := rec.total(layerCanon); (n > 0) != tc.opts.Symmetry {
			t.Errorf("%s: %d canonicalization spans with symmetry=%v", tc.family, n, tc.opts.Symmetry)
		}
		if len(rec.fps) == 0 || len(rec.levelWalls()) == 0 {
			t.Errorf("%s: fingerprint stream or level spans missing", tc.family)
		}
	}
}

func TestTracedClusterMatchesUntraced(t *testing.T) {
	run := func(wrap bool) (*explorer.Result, *clusterTrace, []*recorder) {
		conns := transport.NewMesh(2)
		ct := newClusterTrace()
		results := make([]*explorer.Result, 2)
		recs := make([]*recorder, 2)
		var wg sync.WaitGroup
		for p := range conns {
			opts := explorer.DefaultOptions()
			opts.Workers = 1
			m := familyMachine(t, "asyncraft")
			var c transport.Conn = conns[p]
			if wrap {
				recs[p] = newRecorder(false)
				var err error
				if m, err = wrapMachine(m, recs[p]); err != nil {
					t.Fatal(err)
				}
				c = &tracedConn{Conn: c, ct: ct}
			}
			opts.Peer = &explorer.PeerOptions{Conn: c}
			checker := explorer.NewChecker(m, opts)
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[p] = checker.Run()
			}()
		}
		wg.Wait()
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return results[0], ct, recs
	}
	plain, _, _ := run(false)
	res, ct, recs := run(true)
	if got, want := signature(res), signature(plain); got != want {
		t.Errorf("traced %s, untraced %s", got, want)
	}
	if ct.barriers == 0 || ct.bytesSent == 0 {
		t.Errorf("transport spans missing: %d barriers, %d bytes", ct.barriers, ct.bytesSent)
	}
	for p, rec := range recs {
		if n, _ := rec.total(layerEncode); n == 0 {
			t.Errorf("peer %d: no codec spans; cluster blocks carry encoded states", p)
		}
	}
}
