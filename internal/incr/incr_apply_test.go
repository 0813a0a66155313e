package incr

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// requireSameState asserts two analyses hold bit-identical net states:
// four-value probabilities, certificates and every t.o.p. bin.
func requireSameState(t *testing.T, what string, c *netlist.Circuit, got, want *core.Result) {
	t.Helper()
	for id := range c.Nodes {
		g, w := &got.State[id], &want.State[id]
		for v := range g.P {
			if math.Float64bits(g.P[v]) != math.Float64bits(w.P[v]) {
				t.Fatalf("%s: %s P[%d] = %v, want %v", what, c.Nodes[id].Name, v, g.P[v], w.P[v])
			}
		}
		if g.PrunedMass != w.PrunedMass || g.Budget != w.Budget {
			t.Fatalf("%s: %s certificate (%v, %v), want (%v, %v)",
				what, c.Nodes[id].Name, g.PrunedMass, g.Budget, w.PrunedMass, w.Budget)
		}
		for d := range g.TOP {
			for i := 0; i < got.Grid.N; i++ {
				if math.Float64bits(g.TOP[d].W(i)) != math.Float64bits(w.TOP[d].W(i)) {
					t.Fatalf("%s: %s t.o.p.[%d] bin %d = %v, want %v",
						what, c.Nodes[id].Name, d, i, g.TOP[d].W(i), w.TOP[d].W(i))
				}
			}
		}
	}
}

// perEdit replays a change set as single-edit calls — clears first,
// then sets, each group in node order — and returns the summed
// recomputations.
func perEdit(t *testing.T, s *SPSTA, ch Changes) int {
	t.Helper()
	evals := 0
	add := func(n int, err error) {
		if err != nil {
			t.Fatal(err)
		}
		evals += n
	}
	for _, id := range ch.ClearDelay {
		add(s.ClearDelay(id))
	}
	for _, id := range ch.ClearInput {
		add(s.ClearInput(id))
	}
	for _, id := range sortedKeys(ch.SetDelay) {
		add(s.SetDelay(id, ch.SetDelay[id]))
	}
	for _, id := range sortedKeys(ch.SetInput) {
		add(s.SetInput(id, ch.SetInput[id]))
	}
	return evals
}

func sortedKeys[V any](m map[netlist.NodeID]V) []netlist.NodeID {
	ids := make([]netlist.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestApplyMatchesPerEditAndFull is the one-pass propagation property:
// on every profile, both scenarios and ε ∈ {0, 1e-4}, a sequence of
// multi-edit change sets — new, changed and cleared gate delays and
// launch statistics — applied with one Apply per set leaves the
// session bit-identical (at propagation cutoff Eps = 0, as spstad
// runs its sessions) to the same sets replayed edit by edit and to a
// full Run with the accumulated overrides, and no set recomputes more
// nets than its edit-by-edit replay.
func TestApplyMatchesPerEditAndFull(t *testing.T) {
	totOne, totSeq := 0, 0
	for _, p := range synth.Profiles() {
		c := gen(t, p.Name)
		var gates []netlist.NodeID
		for _, n := range c.Nodes {
			if n.Type.Combinational() {
				gates = append(gates, n.ID)
			}
		}
		launches := c.LaunchPoints()
		for _, scen := range []experiments.Scenario{experiments.ScenarioI, experiments.ScenarioII} {
			for _, eps := range []float64{0, 1e-4} {
				in := experiments.Inputs(c, scen)
				// Unit base delays in scenario I, variational ones in
				// scenario II, as the delta HTTP property runs them.
				sigma := 0.0
				if scen == experiments.ScenarioII {
					sigma = 0.15
				}
				base := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: sigma} }
				a := core.Analyzer{ErrorBudget: eps, Delay: base}
				one, err := NewSPSTA(a, c, in)
				if err != nil {
					t.Fatal(err)
				}
				seq, err := NewSPSTA(a, c, in)
				if err != nil {
					t.Fatal(err)
				}
				one.Eps, seq.Eps = 0, 0
				over := map[netlist.NodeID]dist.Normal{}
				inOver := map[netlist.NodeID]logic.InputStats{}
				rng := rand.New(rand.NewSource(int64(len(c.Nodes))*31 + int64(scen)*7 + int64(eps*1e5)))
				for step := 0; step < 3; step++ {
					ch := Changes{SetDelay: map[netlist.NodeID]dist.Normal{}, SetInput: map[netlist.NodeID]logic.InputStats{}}
					// Drop about half of the overrides in effect.
					for _, id := range sortedKeys(over) {
						if rng.Intn(2) == 0 {
							ch.ClearDelay = append(ch.ClearDelay, id)
							delete(over, id)
						}
					}
					for _, id := range sortedKeys(inOver) {
						if rng.Intn(2) == 0 {
							ch.ClearInput = append(ch.ClearInput, id)
							delete(inOver, id)
						}
					}
					for k := 1 + rng.Intn(4); k > 0; k-- {
						g := gates[rng.Intn(len(gates))]
						d := dist.Normal{Mu: 0.5 + 2*rng.Float64(), Sigma: 0.3 * rng.Float64()}
						ch.SetDelay[g], over[g] = d, d
					}
					if step%2 == 1 && len(launches) > 0 {
						id := launches[rng.Intn(len(launches))]
						st := in[id]
						st.Mu, st.Sigma = rng.Float64(), 0.2+0.4*rng.Float64()
						ch.SetInput[id], inOver[id] = st, st
					}

					nOne, err := one.Apply(ch)
					if err != nil {
						t.Fatal(err)
					}
					nSeq := perEdit(t, seq, ch)
					what := func(s string) string {
						return p.Name + "/" + scen.String() + "/" + s
					}
					totOne, totSeq = totOne+nOne, totSeq+nSeq
					if nOne > nSeq {
						t.Errorf("%s step %d: Apply recomputed %d nets, per-edit %d", what("evals"), step, nOne, nSeq)
					}
					requireSameState(t, what("apply-vs-per-edit"), c, one.Result(), seq.Result())

					fullIn := experiments.Inputs(c, scen)
					for id, st := range inOver {
						fullIn[id] = st
					}
					full, err := (&core.Analyzer{ErrorBudget: eps, Delay: func(n *netlist.Node) dist.Normal {
						if d, ok := over[n.ID]; ok {
							return d
						}
						return base(n)
					}}).Run(c, fullIn)
					if err != nil {
						t.Fatal(err)
					}
					requireSameState(t, what("apply-vs-full"), c, one.Result(), full)
				}
			}
		}
	}
	t.Logf("nets recomputed: %d with one Apply per change set, %d edit by edit", totOne, totSeq)
}

// TestApplyEmptyAndInvalid: an empty change set recomputes nothing,
// and a set carrying invalid launch statistics is rejected before any
// of it is installed.
func TestApplyEmptyAndInvalid(t *testing.T) {
	c := gen(t, "s344")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc, err := NewSPSTA(core.Analyzer{}, c, in)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := inc.Apply(Changes{}); err != nil || n != 0 {
		t.Fatalf("empty Apply: %d recomputations, err %v", n, err)
	}
	g := pickGate(c)
	bad := Changes{
		SetDelay: map[netlist.NodeID]dist.Normal{g: {Mu: 3}},
		SetInput: map[netlist.NodeID]logic.InputStats{c.LaunchPoints()[0]: {P: [4]float64{2, 0, 0, 0}}},
	}
	if _, err := inc.Apply(bad); err == nil {
		t.Fatal("invalid launch statistics accepted")
	}
	if _, ok := inc.over[g]; ok {
		t.Fatal("a rejected change set installed its delay override")
	}

	ss := NewSSTA(c, in, nil)
	if n := ss.Apply(Changes{}); n != 0 {
		t.Fatalf("empty SSTA Apply: %d recomputations", n)
	}
	for _, n := range []int{
		ss.Apply(Changes{SetDelay: map[netlist.NodeID]dist.Normal{g: {Mu: 2}}}),
		ss.Apply(Changes{ClearDelay: []netlist.NodeID{g}}),
	} {
		if n == 0 {
			t.Fatal("SSTA Apply recomputed nothing")
		}
	}
	full := ssta.Analyze(c, in, nil)
	for _, n := range c.Nodes {
		for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
			if got, want := ss.At(n.ID, d), full.At(n.ID, d); got != want {
				t.Fatalf("%s: cleared SSTA session %v, base %v", n.Name, got, want)
			}
		}
	}
}
